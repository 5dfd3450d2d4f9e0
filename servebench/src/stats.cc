#include "stats.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/logging.hh"

namespace servebench {

namespace {

/** 1-based nearest rank of the @p q quantile among @p n samples. */
size_t
nearestRank(size_t n, double q)
{
    // The epsilon keeps q * n from rounding up past an exact integer
    // (0.9 * 100 is 90.000000000000014 in binary floating point).
    double r = std::ceil(q * static_cast<double>(n) - 1e-9);
    return std::clamp<size_t>(static_cast<size_t>(std::max(r, 1.0)),
                              1, n);
}

} // anonymous namespace

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    size_t k = nearestRank(v.size(), q) - 1;
    std::nth_element(v.begin(), v.begin() + k, v.end());
    return v[k];
}

size_t
samplesBeyond(size_t n, double q)
{
    return n == 0 ? 0 : n - nearestRank(n, q);
}

bool
percentileSupported(size_t n, double q)
{
    return samplesBeyond(n, q) >= 10;
}

bool
validMetricName(const std::string &name)
{
    if (name.empty() || name.size() > 64 ||
        !std::isalnum(static_cast<unsigned char>(name[0])))
        return false;
    return std::all_of(name.begin(), name.end(), [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) ||
               c == '_' || c == '.' || c == '-';
    });
}

std::string
resultJson(bool correct, uint64_t attempted, uint64_t failed,
           const std::vector<Metric> &metrics)
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted
       << ", \"failed\": " << failed << ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        m2x_assert(validMetricName(metrics[i].name),
                   "invalid metric name '%s'", metrics[i].name.c_str());
        char num[64];
        double v = std::isfinite(metrics[i].value) ? metrics[i].value
                                                   : 0.0;
        std::snprintf(num, sizeof num, "%.17g", v);
        os << (i ? ", " : "") << "\"" << metrics[i].name
           << "\": {\"value\": " << num << ", \"unit\": \""
           << metrics[i].unit << "\"}";
    }
    os << "}}";
    return os.str();
}

uint64_t
peakRssBytes()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return 1024ull * std::stoull(line.substr(6));
    return 0;
}

} // namespace servebench

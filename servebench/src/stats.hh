/**
 * @file
 * Sample statistics and result reporting for the serving benchmark:
 * nearest-rank quantiles, the rule that a reported percentile needs
 * at least ten samples beyond it, metric-name validation, and the
 * one-line JSON result the benchmark ends with.
 */

#ifndef SERVEBENCH_STATS_HH__
#define SERVEBENCH_STATS_HH__

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace servebench {

/**
 * Nearest-rank quantile: the smallest sample with at least a @p q
 * share of the samples at or below it (rank ceil(q * n), 1-based).
 * 0 for an empty sample.
 */
double quantile(std::vector<double> v, double q);

/** Samples ranked strictly above the nearest-rank @p q quantile. */
size_t samplesBeyond(size_t n, double q);

/** Whether @p n samples support reporting the @p q quantile. */
bool percentileSupported(size_t n, double q);

/** Metric names are made of [A-Za-z0-9_.-] and start with an
 *  alphanumeric; at most 64 characters. */
bool validMetricName(const std::string &name);

/** One reported metric. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/**
 * The result line: {"correct", "attempted", "failed", "metrics"}.
 * Values print with 17 significant digits (as measured); every name
 * must pass validMetricName().
 */
std::string resultJson(bool correct, uint64_t attempted,
                       uint64_t failed,
                       const std::vector<Metric> &metrics);

/** Peak resident set size of this process (VmHWM), in bytes. */
uint64_t peakRssBytes();

} // namespace servebench

#endif // SERVEBENCH_STATS_HH__

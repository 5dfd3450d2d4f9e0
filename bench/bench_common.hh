/**
 * @file
 * Shared configuration for the paper-reproduction bench binaries.
 * All perplexity benches must use the same evaluation window as the
 * coupling calibration (see src/model/config.cc).
 */

#ifndef M2X_BENCH_COMMON_HH__
#define M2X_BENCH_COMMON_HH__

#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "runtime/telemetry.hh"
#include "util/logging.hh"

namespace m2x {
namespace bench {

/** Evaluation stream length used by every perplexity bench. */
constexpr size_t evalTokens = 320;
/** Forward-pass window length. */
constexpr size_t seqLen = 64;

/** Print the standard bench banner. */
inline void
banner(const char *exp_id, const char *what)
{
    std::printf("================================================="
                "=============\n");
    std::printf("%s — %s\n", exp_id, what);
    std::printf("(synthetic substrate; see DESIGN.md §3 for the "
                "substitutions)\n");
    std::printf("================================================="
                "=============\n\n");
    std::fflush(stdout);
}

/**
 * Wall-clock helper on the shared telemetry clock
 * (runtime::telemetry::nowNanos — monotonic steady_clock), so bench
 * timings and trace spans share one time base.
 */
class Stopwatch
{
  public:
    Stopwatch() : start_(runtime::telemetry::nowNanos()) {}
    double
    seconds() const
    {
        return 1e-9 * static_cast<double>(
                          runtime::telemetry::nowNanos() - start_);
    }

  private:
    uint64_t start_;
};

/** The machine's true parallel capacity (never the M2X_THREADS knob). */
inline unsigned
hardwareThreads()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw >= 1 ? hw : 1;
}

/** The runtime benches' command line. */
struct RuntimeBenchArgs
{
    bool quick = false;
    std::string outPath;
    std::string tracePath;
};

/**
 * Parse [--quick] [--out PATH] [--trace PATH] (@p default_out when
 * --out is absent); --trace starts tracing, which
 * finishTrace() stops.
 */
inline RuntimeBenchArgs
parseRuntimeBenchArgs(int argc, char **argv, const char *default_out)
{
    RuntimeBenchArgs a{false, default_out, ""};
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0)
            a.quick = true;
        else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc)
            a.outPath = argv[++i];
        else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc)
            a.tracePath = argv[++i];
        else
            m2x_fatal("usage: %s [--quick] [--out PATH] [--trace PATH]",
                      argv[0]);
    }
    if (!a.tracePath.empty())
        runtime::telemetry::traceStart(a.tracePath);
    return a;
}

/** Write out the trace parseRuntimeBenchArgs started, if any. */
inline void
finishTrace(const RuntimeBenchArgs &a)
{
    if (a.tracePath.empty())
        return;
    size_t n = runtime::telemetry::traceStop();
    std::printf("wrote %zu trace events to %s\n", n, a.tracePath.c_str());
}

/**
 * Streaming JSON writer for the runtime benches' result files, one
 * member or element per line. It keeps the nesting and comma state
 * and escapes strings; numbers keep the precision their caller names
 * (fixed digits for ratios, %.6e for seconds). Object members pass a
 * key, array elements a null one.
 */
class JsonWriter
{
  public:
    explicit JsonWriter(const std::string &path)
        : path_(path), out_(std::fopen(path.c_str(), "w"))
    {
        if (!out_)
            m2x_fatal("cannot open '%s' for writing", path.c_str());
    }
    ~JsonWriter()
    {
        if (out_)
            std::fclose(out_);
    }
    JsonWriter(const JsonWriter &) = delete;
    JsonWriter &operator=(const JsonWriter &) = delete;

    JsonWriter &object(const char *key = nullptr) { return open(key, "{}"); }
    JsonWriter &array(const char *key = nullptr) { return open(key, "[]"); }
    /** Close the innermost object or array. */
    JsonWriter &
    end()
    {
        m2x_assert(!closers_.empty(), "JsonWriter: end() without open");
        char c = closers_.back();
        closers_.pop_back();
        if (!empty_)
            std::fprintf(out_, "\n%*s", indent(), "");
        empty_ = false;
        std::fputc(c, out_);
        return *this;
    }
    /** A bool, integer or string value. */
    template <typename T>
    JsonWriter &
    field(const char *key, const T &v)
    {
        item(key);
        if constexpr (std::is_same_v<T, bool>) {
            std::fputs(v ? "true" : "false", out_);
        } else if constexpr (std::is_integral_v<T>) {
            std::fputs(std::to_string(v).c_str(), out_);
        } else {
            std::fputc('"', out_);
            for (unsigned char c : std::string_view(v)) {
                if (c == '"' || c == '\\' || c < 0x20)
                    std::fprintf(out_, "\\u%04x", c);
                else
                    std::fputc(c, out_);
            }
            std::fputc('"', out_);
        }
        return *this;
    }
    JsonWriter &
    fixed(const char *key, double v, int digits = 3)
    {
        item(key);
        std::fprintf(out_, "%.*f", digits, v);
        return *this;
    }
    JsonWriter &
    sci(const char *key, double v)
    {
        item(key);
        std::fprintf(out_, "%.6e", v);
        return *this;
    }
    /** End the document; a failed write is fatal. */
    void
    close()
    {
        m2x_assert(closers_.empty(), "JsonWriter: %zu scopes left open",
                   closers_.size());
        std::fputc('\n', out_);
        int rc = std::fclose(out_);
        out_ = nullptr;
        if (rc != 0)
            m2x_fatal("cannot write '%s'", path_.c_str());
        std::printf("\nwrote %s\n", path_.c_str());
    }

  private:
    int indent() const { return static_cast<int>(2 * closers_.size()); }
    /** The comma, line break and key ahead of a value. */
    void
    item(const char *key)
    {
        if (!closers_.empty())
            std::fprintf(out_, "%s\n%*s", empty_ ? "" : ",", indent(), "");
        empty_ = false;
        if (key)
            std::fprintf(out_, "\"%s\": ", key);
    }
    JsonWriter &
    open(const char *key, const char *brackets)
    {
        item(key);
        std::fputc(brackets[0], out_);
        closers_.push_back(brackets[1]);
        empty_ = true;
        return *this;
    }

    std::string path_;
    std::FILE *out_;
    std::vector<char> closers_; //!< one per open object or array
    bool empty_ = true;         //!< the innermost scope has no value yet
};

} // namespace bench
} // namespace m2x

#endif // M2X_BENCH_COMMON_HH__

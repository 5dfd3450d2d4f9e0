/**
 * @file
 * Tests for the runtime telemetry subsystem: histogram bucket
 * geometry and quantile extraction against a sorted-reference
 * oracle, counter/gauge/histogram concurrency under a multi-lane
 * ThreadPool (run under ASan/UBSan in CI), the Chrome trace_event
 * JSON round-trip, and the disabled path (zero events, zero
 * registry entries).
 *
 * DisabledPathIsInert must stay the FIRST test in this file: it
 * asserts on process-global state (the registry is empty, nothing
 * is buffered) that later tests deliberately populate.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "runtime/telemetry.hh"
#include "runtime/thread_pool.hh"

namespace m2x {
namespace runtime {
namespace telemetry {
namespace {

/**
 * Minimal structural JSON validator: every brace/bracket balances
 * outside of string literals, strings close, escapes are sane, and
 * the document is a single object. (Semantic validation — event
 * fields, span names — is tools/check_trace.py's job; this guards
 * the writer's quoting/nesting.)
 */
bool
jsonBalanced(const std::string &text)
{
    int depth = 0;
    bool in_string = false, escaped = false, seen_any = false;
    for (char ch : text) {
        if (in_string) {
            if (escaped)
                escaped = false;
            else if (ch == '\\')
                escaped = true;
            else if (ch == '"')
                in_string = false;
            continue;
        }
        switch (ch) {
          case '"':
            in_string = true;
            break;
          case '{':
          case '[':
            ++depth;
            seen_any = true;
            break;
          case '}':
          case ']':
            if (--depth < 0)
                return false;
            break;
          default:
            break;
        }
    }
    return seen_any && depth == 0 && !in_string;
}

TEST(TelemetryDisabled, DisabledPathIsInert)
{
    if (std::getenv("M2X_TRACE") || std::getenv("M2X_METRICS"))
        GTEST_SKIP() << "telemetry enabled via environment";
    ASSERT_FALSE(traceEnabled());
    ASSERT_FALSE(metricsEnabled());

    // Exercise every instrumentation surface: spans, explicit
    // complete events, cached metric handles, and an instrumented
    // pool job.
    {
        TraceSpan span("test.span");
        EXPECT_FALSE(span.active());
        span.arg("k", 1);
        span.arg("f", 0.5);
        span.arg("s", "v");
        EXPECT_EQ(span.finish(), 0u);
    }
    traceComplete("test.complete", 0, 100);

    static std::atomic<Counter *> cslot{nullptr};
    static std::atomic<Gauge *> gslot{nullptr};
    static std::atomic<Histogram *> hslot{nullptr};
    EXPECT_EQ(cachedCounter(cslot, "test.counter"), nullptr);
    EXPECT_EQ(cachedGauge(gslot, "test.gauge"), nullptr);
    EXPECT_EQ(cachedHistogram(hslot, "test.histogram"), nullptr);

    ThreadPool pool(2);
    std::atomic<int> total{0};
    pool.parallelFor(0, 256, 16, [&](size_t b, size_t e) {
        total.fetch_add(static_cast<int>(e - b));
    });
    EXPECT_EQ(total.load(), 256);

    // The whole point of the disabled path: nothing was recorded
    // anywhere — no buffered trace events, no registry entries.
    EXPECT_EQ(detail::pendingTraceEvents(), 0u);
    EXPECT_EQ(MetricRegistry::global().size(), 0u);
}

TEST(Histogram, BucketGeometry)
{
    // Exact unit buckets below 16.
    for (uint64_t v = 0; v < 16; ++v) {
        size_t i = Histogram::bucketIndex(v);
        EXPECT_EQ(Histogram::bucketLow(i), v);
        EXPECT_EQ(Histogram::bucketHigh(i), v + 1);
    }
    // Log-linear buckets: low <= v < high, relative width <= 1/16,
    // and indices are monotone across a wide sweep.
    size_t prev = 0;
    for (uint64_t v = 1; v < (uint64_t{1} << 62);
         v += 1 + v / 3) {
        size_t i = Histogram::bucketIndex(v);
        ASSERT_LT(i, Histogram::nBuckets);
        EXPECT_GE(i, prev);
        prev = i;
        uint64_t lo = Histogram::bucketLow(i);
        uint64_t hi = Histogram::bucketHigh(i);
        EXPECT_LE(lo, v);
        EXPECT_GT(hi, v);
        if (v >= 16) {
            EXPECT_LE(hi - lo, lo / 16);
        }
    }
    // The extremes stay in range.
    EXPECT_LT(Histogram::bucketIndex(UINT64_MAX),
              Histogram::nBuckets);
}

TEST(Histogram, SingleSampleIsExact)
{
    for (uint64_t v : {uint64_t{0}, uint64_t{7}, uint64_t{12345},
                       uint64_t{987654321098ull}}) {
        Histogram h;
        h.record(v);
        EXPECT_EQ(h.count(), 1u);
        EXPECT_EQ(h.sum(), v);
        EXPECT_EQ(h.minValue(), v);
        EXPECT_EQ(h.maxValue(), v);
        for (double q : {0.0, 0.5, 0.95, 0.99, 1.0})
            EXPECT_EQ(h.quantile(q), static_cast<double>(v))
                << "q=" << q << " v=" << v;
    }
}

TEST(Histogram, TwoBucketSplit)
{
    // 10 samples in one bucket, 10 in a far higher one: every
    // quantile below the split must resolve inside the low bucket
    // and every quantile above it inside the high bucket, each
    // within the 1/16 relative bucket width.
    Histogram h;
    for (int i = 0; i < 10; ++i)
        h.record(100);
    for (int i = 0; i < 10; ++i)
        h.record(1000000);
    EXPECT_EQ(h.count(), 20u);
    EXPECT_EQ(h.sum(), 10u * 100 + 10u * 1000000);
    // q in the low half: within the bucket containing 100.
    double lo_est = h.quantile(0.25);
    EXPECT_GE(lo_est, 100.0);
    EXPECT_LE(lo_est, 100.0 * (1.0 + 1.0 / 16));
    // q in the high half: within the bucket containing 1e6.
    double hi_est = h.quantile(0.75);
    EXPECT_GE(hi_est, 1000000.0 * (1.0 - 1.0 / 16));
    EXPECT_LE(hi_est, 1000000.0 * (1.0 + 1.0 / 16));
    // The extremes are exact.
    EXPECT_EQ(h.quantile(0.0), 100.0);
    EXPECT_EQ(h.quantile(1.0), 1000000.0);
}

TEST(Histogram, MillionSampleQuantilesMatchSortedOracle)
{
    // Log-normal-ish latencies spanning several octaves: the shape
    // where log bucketing earns its keep.
    constexpr size_t n = 1000000;
    std::mt19937_64 rng(42);
    std::lognormal_distribution<double> dist(10.0, 2.0);
    std::vector<uint64_t> values(n);
    Histogram h;
    uint64_t sum = 0;
    for (auto &v : values) {
        v = static_cast<uint64_t>(dist(rng));
        h.record(v);
        sum += v;
    }
    EXPECT_EQ(h.count(), n);
    EXPECT_EQ(h.sum(), sum);

    std::vector<uint64_t> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(h.minValue(), sorted.front());
    EXPECT_EQ(h.maxValue(), sorted.back());

    for (double q : {0.0, 0.1, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999,
                     1.0}) {
        auto target = static_cast<size_t>(
            std::llround(q * static_cast<double>(n - 1)));
        double truth = static_cast<double>(sorted[target]);
        double est = h.quantile(q);
        // The estimate lives in the bucket of the true order
        // statistic: relative error bounded by the bucket width
        // (1/16), plus one unit of interpolation slack.
        EXPECT_NEAR(est, truth, truth / 16.0 + 1.0)
            << "q=" << q;
    }
}

TEST(Histogram, ResetClears)
{
    Histogram h;
    h.record(5);
    h.record(500);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0u);
    EXPECT_EQ(h.minValue(), 0u);
    EXPECT_EQ(h.maxValue(), 0u);
    EXPECT_EQ(h.quantile(0.5), 0.0);
    h.record(77);
    EXPECT_EQ(h.quantile(0.5), 77.0);
}

TEST(MetricRegistry, FindOrCreateAndSnapshot)
{
    MetricRegistry &reg = MetricRegistry::global();
    size_t before = reg.size();
    Counter &c = reg.counter("reg_test.counter");
    EXPECT_EQ(&c, &reg.counter("reg_test.counter"));
    c.add(3);
    reg.gauge("reg_test.gauge").set(1.5);
    reg.histogram("reg_test.hist").record(1000);
    EXPECT_EQ(reg.size(), before + 3);
    EXPECT_EQ(reg.findCounter("reg_test.counter")->value(), 3u);
    EXPECT_EQ(reg.findCounter("reg_test.nope"), nullptr);

    reg.counter("reg_test.prefix.a").add(10);
    reg.counter("reg_test.prefix.b").add(32);
    EXPECT_EQ(reg.counterSumByPrefix("reg_test.prefix."), 42u);

    std::string json = reg.snapshotJson();
    EXPECT_TRUE(jsonBalanced(json)) << json;
    EXPECT_NE(json.find("\"reg_test.counter\": 3"),
              std::string::npos);
    EXPECT_NE(json.find("\"reg_test.hist\""), std::string::npos);
    EXPECT_NE(json.find("\"p99\""), std::string::npos);

    // reset() zeroes values but keeps registrations (stable refs).
    reg.reset();
    EXPECT_EQ(reg.size(), before + 5);
    EXPECT_EQ(reg.findCounter("reg_test.counter")->value(), 0u);
    EXPECT_EQ(&c, &reg.counter("reg_test.counter"));
}

TEST(MetricRegistry, ConcurrentRecordingUnderPool)
{
    bool were_on = metricsEnabled();
    setMetricsEnabled(true);
    MetricRegistry &reg = MetricRegistry::global();
    Counter &hits = reg.counter("conc_test.hits");
    Gauge &last = reg.gauge("conc_test.last");
    Histogram &lat = reg.histogram("conc_test.lat");
    hits.reset();
    lat.reset();

    constexpr size_t n = 100000;
    ThreadPool pool(4);
    static std::atomic<Counter *> cached_slot{nullptr};
    pool.parallelFor(0, n, 64, [&](size_t b, size_t e) {
        for (size_t i = b; i < e; ++i) {
            hits.add();
            lat.record(i);
            last.set(3.25);
            // The lazily-cached handle resolves to the same entry
            // from every lane.
            if (auto *c = cachedCounter(cached_slot,
                                        "conc_test.hits2"))
                c->add();
        }
    });
    EXPECT_EQ(hits.value(), n);
    EXPECT_EQ(lat.count(), n);
    EXPECT_EQ(lat.sum(), n * (n - 1) / 2);
    EXPECT_EQ(lat.minValue(), 0u);
    EXPECT_EQ(lat.maxValue(), n - 1);
    EXPECT_EQ(last.value(), 3.25);
    EXPECT_EQ(reg.findCounter("conc_test.hits2")->value(), n);
    // Median of 0..n-1 within one bucket width.
    EXPECT_NEAR(lat.quantile(0.5), n / 2.0, n / 16.0);
    setMetricsEnabled(were_on);
}

TEST(Trace, JsonRoundTrip)
{
    std::string path =
        testing::TempDir() + "telemetry_trace_test.json";
    traceStart(path);
    ASSERT_TRUE(traceEnabled());
    setCurrentThreadName("main-test-thread");
    {
        TraceSpan span("trace_test.outer");
        ASSERT_TRUE(span.active());
        span.arg("iter", 3);
        span.arg("ratio", 0.5);
        span.arg("quoted", "a\"b\\c\n");
        TraceSpan inner("trace_test.inner");
        inner.finish();
    }
    traceComplete("trace_test.complete", nowNanos() - 1000,
                  nowNanos());
    // Spans recorded on pool workers land in per-thread buffers.
    ThreadPool pool(3);
    pool.parallelFor(0, 8, 1, [&](size_t b, size_t) {
        TraceSpan span("trace_test.worker");
        span.arg("chunk", b);
    });
    EXPECT_GT(detail::pendingTraceEvents(), 0u);

    size_t written = traceStop();
    EXPECT_FALSE(traceEnabled());
    EXPECT_GE(written, 11u); // 3 + 1 + 8 span events
    EXPECT_EQ(detail::pendingTraceEvents(), 0u);
    // Stopping again is a no-op.
    EXPECT_EQ(traceStop(), 0u);

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    std::string text = ss.str();
    EXPECT_TRUE(jsonBalanced(text)) << text;
    for (const char *needle :
         {"\"traceEvents\"", "\"ph\": \"X\"", "\"ph\": \"M\"",
          "trace_test.outer", "trace_test.inner",
          "trace_test.complete", "trace_test.worker",
          "main-test-thread", "\"iter\": 3",
          "a\\\"b\\\\c\\n"})
        EXPECT_NE(text.find(needle), std::string::npos)
            << "missing " << needle;
    std::remove(path.c_str());
}

TEST(Trace, SpanStraddlingStopIsDropped)
{
    std::string path =
        testing::TempDir() + "telemetry_trace_straddle.json";
    traceStart(path);
    {
        TraceSpan span("trace_test.straddle");
        ASSERT_TRUE(span.active());
        traceStop();
        // The span ends after the flush: it must vanish, not linger
        // in a drained buffer.
    }
    EXPECT_EQ(detail::pendingTraceEvents(), 0u);
    std::remove(path.c_str());
}

} // anonymous namespace
} // namespace telemetry
} // namespace runtime
} // namespace m2x

/**
 * @file
 * The serving benchmark's own tests: input determinism, the
 * nearest-rank statistics and sample-count rule, metric names (and
 * their agreement with BENCHMARK.json), and the traced replay on a
 * one-layer model.
 */

#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "drive.hh"
#include "loadgen.hh"
#include "model/config.hh"
#include "replay.hh"
#include "report.hh"
#include "runtime/serving.hh"
#include "runtime/telemetry.hh"
#include "stats.hh"

namespace servebench {
namespace {

TEST(LoadGen, SameSeedSameDigestOtherSeedOtherDigest)
{
    for (const WorkloadSpec &w : workloads()) {
        uint64_t a = inputDigest(generateInputs(w, 7, 512, 2));
        uint64_t b = inputDigest(generateInputs(w, 7, 512, 2));
        uint64_t c = inputDigest(generateInputs(w, 8, 512, 2));
        EXPECT_EQ(a, b) << w.name;
        EXPECT_NE(a, c) << w.name;
    }
}

TEST(LoadGen, WorkloadsUnderOneSeedDiffer)
{
    std::set<uint64_t> digests;
    for (const WorkloadSpec &w : workloads())
        digests.insert(inputDigest(generateInputs(w, 7, 512, 1)));
    EXPECT_EQ(digests.size(), workloads().size());
}

TEST(LoadGen, PassesHoldEnoughSamplesAndRespectRanges)
{
    for (const WorkloadSpec &w : workloads()) {
        size_t n = passCount(w, 20);
        std::vector<RunInputs> passes = generateInputs(w, 3, 512, n);
        ASSERT_EQ(passes.size(), n) << w.name;
        ASSERT_GE(n, 1u) << w.name;
        for (const RunInputs &in : passes) {
            EXPECT_GE(in.requestCount(), minRequestsPerPass) << w.name;
            size_t gaps = 0;
            double last = 0.0;
            for (const auto &burst : in.bursts)
                for (const RequestInput &r : burst) {
                    EXPECT_GE(r.prompt.size(), w.promptLo);
                    EXPECT_LE(r.prompt.size(), w.promptHi);
                    EXPECT_GE(r.maxNew, w.outLo);
                    EXPECT_LE(r.maxNew, w.outHi);
                    gaps += r.maxNew - 1;
                    if (w.arrival == Arrival::Burst) {
                        EXPECT_EQ(r.dueS, 0.0);
                    }
                    EXPECT_GE(r.dueS, last); // due times never go back
                    last = r.dueS;
                }
            EXPECT_GE(gaps, minGapsPerPass) << w.name;
        }
    }
}

TEST(Stats, NearestRankQuantiles)
{
    std::vector<double> v;
    for (int i = 100; i >= 1; --i)
        v.push_back(i);
    EXPECT_EQ(quantile(v, 0.50), 50.0);
    EXPECT_EQ(quantile(v, 0.90), 90.0);
    EXPECT_EQ(quantile(v, 0.99), 99.0);
    EXPECT_EQ(quantile(v, 1.00), 100.0);
    EXPECT_EQ(quantile(v, 0.0), 1.0);
    EXPECT_EQ(quantile({3.0, 1.0, 2.0}, 0.5), 2.0);
    EXPECT_EQ(quantile({1.0, 2.0}, 0.5), 1.0);
    EXPECT_EQ(quantile({}, 0.5), 0.0);
}

TEST(Stats, TenSamplesBeyondAPercentile)
{
    EXPECT_EQ(samplesBeyond(100, 0.9), 10u);
    EXPECT_TRUE(percentileSupported(100, 0.9));
    EXPECT_FALSE(percentileSupported(99, 0.9));
    EXPECT_TRUE(percentileSupported(1000, 0.99));
    EXPECT_FALSE(percentileSupported(999, 0.99));
    EXPECT_EQ(samplesBeyond(0, 0.5), 0u);
}

TEST(Stats, MetricNames)
{
    EXPECT_TRUE(validMetricName("serving.step_s.p50"));
    EXPECT_TRUE(validMetricName("ttft_p90_s"));
    EXPECT_TRUE(validMetricName("a-b"));
    EXPECT_FALSE(validMetricName(""));
    EXPECT_FALSE(validMetricName(".hidden"));
    EXPECT_FALSE(validMetricName("tokens/s"));
    EXPECT_FALSE(validMetricName("with space"));
    EXPECT_FALSE(validMetricName(std::string(65, 'a')));
}

std::vector<std::string>
names(const std::vector<Metric> &ms)
{
    std::vector<std::string> out;
    for (const Metric &m : ms)
        out.push_back(m.name);
    return out;
}

/** Metric names listed under @p section in BENCHMARK.json. */
std::vector<std::string>
benchmarkJsonNames(const std::string &section)
{
    std::ifstream f(SERVEBENCH_ROOT "/BENCHMARK.json");
    std::stringstream ss;
    ss << f.rdbuf();
    std::string text = ss.str();
    size_t at = text.find("\"" + section + "\"");
    if (at == std::string::npos)
        return {};
    size_t open = text.find('[', at), close = text.find(']', open);
    std::string body = text.substr(open, close - open);
    std::vector<std::string> out;
    std::regex name_re("\"name\"\\s*:\\s*\"([^\"]+)\"");
    for (std::sregex_iterator it(body.begin(), body.end(), name_re), end;
         it != end; ++it)
        out.push_back((*it)[1]);
    return out;
}

TEST(Report, MetricNamesAreValidUniqueAndListedInBenchmarkJson)
{
    std::vector<std::string> e2e =
        names(endToEndMetrics({}, {}, RunContext{}));
    std::vector<std::string> layer = names(perLayerMetrics(
        workloads()[0], {}, {}, {}, {}, 0.0, Probes{}));
    std::set<std::string> all;
    for (const auto *list : {&e2e, &layer})
        for (const std::string &n : *list) {
            EXPECT_TRUE(validMetricName(n)) << n;
            EXPECT_TRUE(all.insert(n).second) << "duplicate " << n;
        }
    EXPECT_EQ(benchmarkJsonNames("end_to_end"), e2e);
    EXPECT_EQ(benchmarkJsonNames("per_layer"), layer);
    std::vector<std::string> wl;
    for (const WorkloadSpec &w : workloads())
        wl.push_back(w.name);
    EXPECT_EQ(benchmarkJsonNames("workloads"), wl);
}

TEST(Report, ResultLineShape)
{
    std::string j = resultJson(true, 3, 1, {{"x_s", 0.5, "s"}});
    EXPECT_EQ(j, "{\"correct\": true, \"attempted\": 3, \"failed\": 1, "
                 "\"metrics\": {\"x_s\": {\"value\": 0.5, \"unit\": "
                 "\"s\"}}}");
}

/** A one-layer model and a traffic mix small enough for a test. */
struct TinySetup
{
    m2x::model::ModelConfig mc;
    m2x::runtime::ServingConfig cfg;
    WorkloadSpec w;
};

TinySetup
tinySetup(Arrival arrival, size_t arena_pages)
{
    TinySetup t;
    t.mc = m2x::model::llama2_7b();
    t.mc.nLayers = 1;
    t.mc.vocab = 128;
    t.cfg.threads = 2;
    t.cfg.pageRows = 4;
    t.cfg.arenaPages = arena_pages;
    t.cfg.maxBatch = 8;
    t.w = {.name = "tiny",
           .why = "test",
           .arrival = arrival,
           .ratePerS = 200.0,
           .burstRequests = 25,
           .passSeconds = 1.0,
           .promptLo = 4, .promptHi = 24,
           .outLo = 3, .outHi = 10,
           .arenaPages = arena_pages,
           .codec = m2x::PackedCodec::ElemEm,
           .ttftLimitS = 1.0, .gapLimitS = 1.0};
    return t;
}

void
expectReplayMatches(const TinySetup &t, bool expect_preemption)
{
    m2x::runtime::ServingEngine eng(t.mc, t.cfg);
    RunInputs in = generateInputs(t.w, 5, t.mc.vocab, 1).front();
    size_t first_id = eng.requestCount();
    size_t steps_before = eng.stepCount();
    DriveLog run = drive(eng, in, true);
    ASSERT_EQ(run.reqs.size(), in.requestCount());
    for (const RequestOutcome &o : run.reqs)
        EXPECT_TRUE(o.succeeded);
    if (expect_preemption) {
        EXPECT_GT(run.preemptions, 0u);
    }

    ReplayResult rr = replay(t.mc, t.cfg, in, run, first_id);
    EXPECT_TRUE(rr.matched) << rr.mismatch;
    EXPECT_EQ(rr.tokensChecked, run.generatedTokens);
    // The engine counts the steps that ran a decode batch.
    size_t decode_steps = 0;
    for (const StepTrace &st : run.steps)
        decode_steps += st.decodeRows() > 0;
    EXPECT_EQ(decode_steps, eng.stepCount() - steps_before);
    if (expect_preemption) {
        EXPECT_GT(rr.reprefillTokens, 0u);
    }

    // The step budget takes the engine's own figures and adds up.
    StepBudget b = stepBudget(run, rr);
    EXPECT_GT(b.encodeS, 0.0);
    EXPECT_GT(b.gemmS, 0.0);
    EXPECT_GT(b.attendS, 0.0);
    EXPECT_GT(b.prefillS, 0.0);
    EXPECT_GT(b.decodeS, 0.0);
    EXPECT_GT(b.schedS, 0.0);
    EXPECT_LE(b.prefillS + b.decodeS, b.totalS);
    EXPECT_NEAR(b.encodeS + b.gemmS + b.attendS + b.glueS + b.schedS +
                    b.unattributedS,
                b.totalS, 1e-9 * b.totalS);

    // The check is live: a flipped decode token is caught.
    DriveLog bad = run;
    for (StepTrace &st : bad.steps)
        if (st.decodeRows() > 0) {
            st.emitted.back().second ^= 1;
            break;
        }
    EXPECT_FALSE(replay(t.mc, t.cfg, in, bad, first_id).matched);
}

TEST(Drive, SkipsIdleAndKeepsDueTimesOnEitherClock)
{
    TinySetup t = tinySetup(Arrival::PacedPairs, 4096);
    t.cfg.threads = 1;
    t.w.ratePerS = 20.0; // ~5 s of arrivals, a few ms of work
    RunInputs in = generateInputs(t.w, 5, t.mc.vocab, 1).front();
    const double last_due = in.bursts.front().back().dueS;
    for (Clock clock : {Clock::Cpu, Clock::Wall}) {
        m2x::runtime::ServingEngine eng(t.mc, t.cfg);
        uint64_t t0 = m2x::runtime::telemetry::nowNanos();
        DriveLog run = drive(eng, in, false, clock);
        double wall_s =
            1e-9 * static_cast<double>(
                       m2x::runtime::telemetry::nowNanos() - t0);

        // Idle stretches are skipped, not slept through...
        EXPECT_LT(wall_s, 0.5 * last_due);
        // ...but the due times keep their spacing on the clock.
        EXPECT_GE(run.busySpanS, last_due);
        size_t gaps = 0;
        for (const RequestOutcome &o : run.reqs) {
            EXPECT_TRUE(o.succeeded);
            EXPECT_GE(o.submitNs, o.dueNs);
            EXPECT_GT(o.firstTokenNs, o.submitNs);
            EXPECT_GE(o.lastTokenNs, o.firstTokenNs);
            gaps += eng.generated(o.id).size() - 1;
        }
        EXPECT_EQ(run.itlS.size(), gaps);
        EXPECT_GT(run.stepS, 0.0);
    }
}

TEST(Replay, ReproducesBurstWithPreemption)
{
    expectReplayMatches(tinySetup(Arrival::Burst, 40), true);
}

TEST(Replay, ReproducesOpenLoopArrivals)
{
    expectReplayMatches(tinySetup(Arrival::PacedPairs, 4096), false);
}

} // anonymous namespace
} // namespace servebench

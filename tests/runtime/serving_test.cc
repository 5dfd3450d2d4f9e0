/**
 * @file
 * ServingEngine: continuous batching over the shared page arena must
 * not change what any request generates — scheduler interleaving,
 * admission stalls, preemption and byte-exact re-prefill are all
 * invisible to the tokens, so every request's output equals a
 * single-sequence KV-cached greedy run bit-for-bit (both KV modes,
 * every compiled ISA tier; the single-sequence path's own parity
 * against the one-shot forward is covered by cache_attend_test).
 * Also covers: the fixed-batch shape the benches time, admission
 * stalling at arena exhaustion, forced preemption with recovered
 * outputs, and free-list reuse keeping the arena flat across request
 * churn.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "runtime/serving.hh"
#include "runtime/telemetry.hh"
#include "runtime_test_util.hh"

namespace m2x {
namespace runtime {
namespace {

using test::randomTokens;
using test::tinyConfig;

struct Workload
{
    std::vector<int> prompt;
    size_t maxNew;
};

std::vector<Workload>
mixedWorkload(const model::ModelConfig &mc)
{
    return {
        {randomTokens(6, mc.vocab, 1), 5},
        {randomTokens(3, mc.vocab, 2), 8},
        {randomTokens(9, mc.vocab, 3), 1}, // finishes at admission
        {randomTokens(5, mc.vocab, 4), 6},
    };
}

void
expectMatchesReference(ServingEngine &eng,
                       const model::ModelConfig &mc,
                       const std::vector<Workload> &work,
                       KvCacheMode mode, SimdIsa isa)
{
    for (size_t i = 0; i < work.size(); ++i) {
        SCOPED_TRACE("request " + std::to_string(i));
        const RequestStats &st = eng.stats(i);
        EXPECT_EQ(st.state, RequestState::Finished);
        EXPECT_EQ(st.generated, work[i].maxNew);
        EXPECT_GT(st.ttftSeconds(), 0.0);
        std::vector<int> want = test::greedyReference(
            mc, mode, isa, defaultPackedCodec(), work[i].prompt,
            work[i].maxNew);
        EXPECT_EQ(eng.generated(i), want);
    }
}

TEST(ServingEngine, MatchesSingleSequenceDecodeOnEveryTier)
{
    model::ModelConfig mc = tinyConfig();
    std::vector<Workload> work = mixedWorkload(mc);
    for (KvCacheMode mode :
         {KvCacheMode::Fp32, KvCacheMode::Packed}) {
        for (SimdIsa isa : supportedSimdIsas()) {
            SCOPED_TRACE(std::string("mode=") +
                         kvCacheModeName(mode) +
                         " isa=" + simdIsaName(isa));
            ServingEngine eng(mc, {.isa = isa,
                                   .kvMode = mode,
                                   .pageRows = 4,
                                   .arenaPages = 256,
                                   .maxBatch = 8});
            for (const Workload &w : work)
                eng.submit(w.prompt, w.maxNew);
            eng.runToCompletion();
            EXPECT_TRUE(eng.idle());
            EXPECT_EQ(eng.finishedCount(), work.size());
            // Ample arena: the scheduler never had to preempt.
            EXPECT_EQ(eng.preemptionCount(), 0u);
            expectMatchesReference(eng, mc, work, mode, isa);
        }
    }
}

TEST(ServingEngine, FixedBatchStepsWholeBatchWithoutPreemption)
{
    // The fixed-batch shape: every request submitted before the
    // first step() into an arena sized for the whole batch's final
    // rows. Step 1 admits and prefills all of them (their first
    // tokens) and every step after advances the whole batch by one
    // token, so maxNew - 1 batched forwards finish the run.
    model::ModelConfig mc = tinyConfig();
    const size_t batch = 3, prompt = 7, max_new = 5, page_rows = 4;
    std::vector<Workload> work;
    for (uint64_t i = 0; i < batch; ++i)
        work.push_back({randomTokens(prompt, mc.vocab, 61 + i),
                        max_new});
    // The last token is never fed back: prompt + maxNew - 1 rows.
    size_t pages = batch * 2 * mc.nLayers *
                   KvPageArena::pagesForRows(prompt + max_new - 1,
                                             page_rows);
    bool metrics_were_on = telemetry::metricsEnabled();
    telemetry::setMetricsEnabled(true);
    for (KvCacheMode mode :
         {KvCacheMode::Fp32, KvCacheMode::Packed}) {
        SCOPED_TRACE(kvCacheModeName(mode));
        telemetry::MetricRegistry::global().reset();
        SimdIsa isa = activeSimdIsa();
        ServingEngine eng(mc, {.isa = isa,
                               .kvMode = mode,
                               .pageRows = page_rows,
                               .arenaPages = pages,
                               .admitFreeFraction = 0.0});
        for (const Workload &w : work)
            eng.submit(w.prompt, w.maxNew);
        ASSERT_TRUE(eng.step());
        EXPECT_EQ(eng.activeCount(), batch);
        EXPECT_EQ(eng.waitingCount(), 0u);
        eng.runToCompletion();
        EXPECT_EQ(eng.stepCount(), max_new - 1);
        EXPECT_EQ(eng.preemptionCount(), 0u);
        EXPECT_GT(eng.attendSeconds(), 0.0);
        const telemetry::Histogram *h =
            telemetry::MetricRegistry::global().findHistogram(
                "serving.step_ns");
        ASSERT_NE(h, nullptr);
        EXPECT_EQ(h->count(), eng.stepCount());
        const telemetry::Gauge *scratch =
            telemetry::MetricRegistry::global().findGauge(
                "decode.attend_scratch_bytes");
        ASSERT_NE(scratch, nullptr);
        EXPECT_GT(scratch->value(), 0.0);
        expectMatchesReference(eng, mc, work, mode, isa);
    }
    telemetry::setMetricsEnabled(metrics_were_on);
}

TEST(ServingEngine, AdmissionStallsAtArenaExhaustion)
{
    model::ModelConfig mc = tinyConfig();
    // One request needs 8 pages (prompt 4 + gen 4 -> 7 rows -> 2
    // pages per stream, x2 streams x2 layers); 12 total pages admit
    // exactly one at a time.
    std::vector<Workload> work = {
        {randomTokens(4, mc.vocab, 11), 4},
        {randomTokens(4, mc.vocab, 12), 4},
        {randomTokens(4, mc.vocab, 13), 4},
    };
    ServingEngine eng(mc, {.kvMode = KvCacheMode::Packed,
                           .pageRows = 4,
                           .arenaPages = 12,
                           .maxBatch = 8,
                           .admitFreeFraction = 0.0});
    for (const Workload &w : work)
        eng.submit(w.prompt, w.maxNew);
    ASSERT_TRUE(eng.step());
    // Only the first request fit; the rest stalled in the queue.
    EXPECT_EQ(eng.activeCount(), 1u);
    EXPECT_EQ(eng.waitingCount(), 2u);
    eng.runToCompletion();
    EXPECT_TRUE(eng.idle());
    EXPECT_EQ(eng.finishedCount(), 3u);
    EXPECT_EQ(eng.arena().livePages(), 0u);
    for (size_t i = 0; i < work.size(); ++i)
        EXPECT_EQ(eng.generated(i).size(), work[i].maxNew);
}

TEST(ServingEngine, PreemptionRoundTripKeepsOutputsExact)
{
    model::ModelConfig mc = tinyConfig();
    SimdIsa isa = activeSimdIsa();
    std::vector<Workload> work = {
        {randomTokens(6, mc.vocab, 21), 10},
        {randomTokens(6, mc.vocab, 22), 10},
        {randomTokens(6, mc.vocab, 23), 10},
    };
    // Tight arena: all three admit early (8 pages each) but cannot
    // all grow to their 16-page finals, so the youngest gets evicted
    // mid-generation and later resumes via byte-exact re-prefill.
    ServingEngine eng(mc, {.isa = isa,
                           .kvMode = KvCacheMode::Packed,
                           .pageRows = 4,
                           .arenaPages = 28,
                           .maxBatch = 4,
                           .admitFreeFraction = 0.0});
    for (const Workload &w : work)
        eng.submit(w.prompt, w.maxNew);
    eng.runToCompletion();
    EXPECT_TRUE(eng.idle());
    EXPECT_GT(eng.preemptionCount(), 0u);
    expectMatchesReference(eng, mc, work, KvCacheMode::Packed, isa);
    size_t preempted_total = 0;
    for (size_t i = 0; i < work.size(); ++i)
        preempted_total += eng.stats(i).preemptions;
    EXPECT_EQ(preempted_total, eng.preemptionCount());
}

TEST(ServingEngine, ChurnDoesNotGrowArena)
{
    model::ModelConfig mc = tinyConfig();
    ServingEngine eng(mc, {.kvMode = KvCacheMode::Packed,
                           .pageRows = 4,
                           .arenaPages = 64,
                           .maxBatch = 4});
    size_t high_water_after_first = 0;
    for (int wave = 0; wave < 3; ++wave) {
        SCOPED_TRACE("wave " + std::to_string(wave));
        for (uint64_t i = 0; i < 3; ++i)
            eng.submit(randomTokens(5, mc.vocab, 31 + i), 6);
        eng.runToCompletion();
        EXPECT_TRUE(eng.idle());
        EXPECT_EQ(eng.arena().livePages(), 0u);
        if (wave == 0)
            high_water_after_first = eng.arena().highWaterPages();
        // Identical waves recycle the first wave's pages: the
        // arena's materialized set must not grow across churn.
        EXPECT_EQ(eng.arena().highWaterPages(),
                  high_water_after_first);
    }
    EXPECT_EQ(eng.finishedCount(), 9u);
    EXPECT_GT(eng.occupancyPeak(), 0.0);
    EXPECT_LE(eng.occupancyPeak(), 1.0);
    EXPECT_GT(eng.stepCount(), 0u);
    // 54 tokens total: each request's first lands in ttfts(), the
    // remaining inter-token gaps in tokenLatencies().
    EXPECT_EQ(eng.ttfts().size(), 9u);
    EXPECT_EQ(eng.tokenLatencies().size(), 9u * 6u - 9u);
}

TEST(ServingEngine, LifecycleAndStateNames)
{
    model::ModelConfig mc = tinyConfig();
    ServingEngine eng(mc, {.kvMode = KvCacheMode::Fp32,
                           .pageRows = 4,
                           .arenaPages = 64});
    size_t id = eng.submit(randomTokens(4, mc.vocab, 51), 3);
    EXPECT_EQ(eng.stats(id).state, RequestState::Queued);
    EXPECT_EQ(eng.waitingCount(), 1u);
    eng.runToCompletion();
    EXPECT_EQ(eng.stats(id).state, RequestState::Finished);
    EXPECT_EQ(eng.generated(id).size(), 3u);
    EXPECT_STREQ(requestStateName(RequestState::Queued), "queued");
    EXPECT_STREQ(requestStateName(RequestState::Active), "active");
    EXPECT_STREQ(requestStateName(RequestState::Preempted),
                 "preempted");
    EXPECT_STREQ(requestStateName(RequestState::Finished),
                 "finished");
}

} // namespace
} // namespace runtime
} // namespace m2x

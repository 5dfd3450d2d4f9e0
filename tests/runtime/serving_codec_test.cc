/**
 * @file
 * ServingEngine end-to-end over the codec seam: continuous batching,
 * admission stalls, forced preemption and byte-exact re-prefill
 * resume must all be invisible to the generated tokens for every
 * registered packed codec, not just the paper's elem_em pair. Each
 * request's output is held bit-for-bit to a single-sequence
 * KV-cached greedy run configured with the same codec (whose own
 * parity against the one-shot forward is codec-independent linear
 * algebra).
 *
 * This is the serving-layer leg of the cross-format differential
 * suite: the scheduler machinery exercised by serving_test.cc, but
 * with the linear layers and KV pages executing a non-default format
 * through the traits-driven generic kernels.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/packed_codec.hh"
#include "runtime/serving.hh"
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

class ServingCodec : public testing::TestWithParam<PackedCodec>
{
  protected:
    PackedCodec codec() const { return GetParam(); }

    void expectMatchesReference(ServingEngine &eng,
                                const model::ModelConfig &mc,
                                const std::vector<Workload> &work,
                                SimdIsa isa)
    {
        for (size_t i = 0; i < work.size(); ++i) {
            SCOPED_TRACE("request " + std::to_string(i));
            const RequestStats &st = eng.stats(i);
            EXPECT_EQ(st.state, RequestState::Finished);
            EXPECT_EQ(st.generated, work[i].maxNew);
            std::vector<int> want = test::greedyReference(
                mc, KvCacheMode::Packed, isa, codec(),
                work[i].prompt, work[i].maxNew);
            EXPECT_EQ(eng.generated(i), want);
        }
    }
};

TEST_P(ServingCodec, BatchedGenerationMatchesSingleSequence)
{
    model::ModelConfig mc = tinyConfig();
    std::vector<Workload> work = {
        {randomTokens(6, mc.vocab, 1), 5},
        {randomTokens(3, mc.vocab, 2), 8},
        {randomTokens(9, mc.vocab, 3), 1},
        {randomTokens(5, mc.vocab, 4), 6},
    };
    for (SimdIsa isa : supportedSimdIsas()) {
        SCOPED_TRACE(std::string("isa=") + simdIsaName(isa));
        ServingEngine eng(mc, {.isa = isa,
                               .kvMode = KvCacheMode::Packed,
                               .pageRows = 4,
                               .arenaPages = 256,
                               .maxBatch = 8,
                               .codec = codec()});
        EXPECT_EQ(eng.codec(), codec());
        EXPECT_EQ(eng.arena().codec(), codec());
        for (const Workload &w : work)
            eng.submit(w.prompt, w.maxNew);
        eng.runToCompletion();
        EXPECT_TRUE(eng.idle());
        EXPECT_EQ(eng.finishedCount(), work.size());
        EXPECT_EQ(eng.preemptionCount(), 0u);
        expectMatchesReference(eng, mc, work, isa);
    }
}

TEST_P(ServingCodec, AdmissionStallsAtArenaExhaustion)
{
    model::ModelConfig mc = tinyConfig();
    // Page accounting is row-granular, so the serving_test geometry
    // carries over codec-unchanged: each request needs 8 pages, 12
    // total pages admit exactly one at a time.
    std::vector<Workload> work = {
        {randomTokens(4, mc.vocab, 11), 4},
        {randomTokens(4, mc.vocab, 12), 4},
        {randomTokens(4, mc.vocab, 13), 4},
    };
    ServingEngine eng(mc, {.kvMode = KvCacheMode::Packed,
                           .pageRows = 4,
                           .arenaPages = 12,
                           .maxBatch = 8,
                           .admitFreeFraction = 0.0,
                           .codec = codec()});
    for (const Workload &w : work)
        eng.submit(w.prompt, w.maxNew);
    ASSERT_TRUE(eng.step());
    EXPECT_EQ(eng.activeCount(), 1u);
    EXPECT_EQ(eng.waitingCount(), 2u);
    eng.runToCompletion();
    EXPECT_TRUE(eng.idle());
    EXPECT_EQ(eng.finishedCount(), 3u);
    EXPECT_EQ(eng.arena().livePages(), 0u);
    for (size_t i = 0; i < work.size(); ++i)
        EXPECT_EQ(eng.generated(i).size(), work[i].maxNew);
}

TEST_P(ServingCodec, PreemptionRoundTripKeepsOutputsExact)
{
    model::ModelConfig mc = tinyConfig();
    SimdIsa isa = activeSimdIsa();
    std::vector<Workload> work = {
        {randomTokens(6, mc.vocab, 21), 10},
        {randomTokens(6, mc.vocab, 22), 10},
        {randomTokens(6, mc.vocab, 23), 10},
    };
    // Tight arena: the youngest request gets evicted mid-generation
    // and resumes via re-prefill — which must rebuild byte-identical
    // packed pages under every codec for the outputs to stay exact.
    ServingEngine eng(mc, {.isa = isa,
                           .kvMode = KvCacheMode::Packed,
                           .pageRows = 4,
                           .arenaPages = 28,
                           .maxBatch = 4,
                           .admitFreeFraction = 0.0,
                           .codec = codec()});
    for (const Workload &w : work)
        eng.submit(w.prompt, w.maxNew);
    eng.runToCompletion();
    EXPECT_TRUE(eng.idle());
    EXPECT_GT(eng.preemptionCount(), 0u);
    expectMatchesReference(eng, mc, work, isa);
}

INSTANTIATE_TEST_SUITE_P(
    AllCodecs, ServingCodec, testing::ValuesIn(allPackedCodecs()),
    [](const testing::TestParamInfo<PackedCodec> &info) {
        return std::string(packedCodecName(info.param));
    });

} // namespace
} // namespace runtime
} // namespace m2x

/**
 * @file
 * InferenceSession: batched packed-domain forward passes must agree
 * with the functional quantized transformer (bit-exactly on the
 * scalar kernel tier, within tolerance on vector tiers), and the
 * per-layer accounting — including the reported ISA — must add up.
 */

#include <gtest/gtest.h>

#include <memory>
#include <thread>

#include "core/m2xfp.hh"
#include "runtime/inference_session.hh"
#include "runtime_test_util.hh"

namespace m2x {
namespace runtime {
namespace {

using test::randomTokens;
using test::tinyConfig;

TEST(InferenceSession, MatchesFunctionalQuantizedTransformer)
{
    model::ModelConfig cfg = tinyConfig();

    model::TinyTransformer ref(cfg);
    ref.rebuild(model::quantizedLinearFactory(
        [] {
            return std::make_shared<SgEmQuantizer>(
                makeM2xfpWeightQuantizer());
        },
        [] {
            return std::make_shared<ElemEmQuantizer>(
                makeM2xfpActivationQuantizer());
        }));

    std::vector<int> toks = randomTokens(12, cfg.vocab, 1);
    Matrix want = ref.forwardLogits(toks);
    for (SimdIsa isa : supportedSimdIsas()) {
        SCOPED_TRACE(std::string("isa=") + simdIsaName(isa));
        // The oracle above is the paper-pair pipeline, so the codec
        // must stay pinned regardless of any M2X_FORMAT override
        // (cross-format coverage lives in cross_format_parity_test).
        InferenceSession session(
            cfg, {.isa = isa, .codec = PackedCodec::ElemEm});
        EXPECT_EQ(session.simdIsa(), isa);
        // Model-level tolerance: tiny linear-output differences pass
        // through layernorm/softmax, so the vector-tier bound is a
        // little looser than the raw GEMM contract.
        Matrix got = session.forward(toks);
        if (isa == SimdIsa::Scalar)
            test::expectMatricesBitExact(got, want);
        else
            test::expectMatricesClose(got, want, 1e-5);
    }
}

TEST(InferenceSession, BatchedForwardAndTimings)
{
    model::ModelConfig cfg = tinyConfig();
    InferenceSession session(cfg, {.threads = 2});

    std::vector<std::vector<int>> batch = {
        randomTokens(8, cfg.vocab, 2),
        randomTokens(16, cfg.vocab, 3),
        randomTokens(4, cfg.vocab, 4),
    };
    std::vector<Matrix> logits = session.forwardBatch(batch);
    ASSERT_EQ(logits.size(), 3u);
    for (size_t s = 0; s < batch.size(); ++s) {
        EXPECT_EQ(logits[s].rows(), batch[s].size());
        EXPECT_EQ(logits[s].cols(), cfg.vocab);
    }

    // 7 linears per layer + head, each called once per sequence.
    const auto &stats = session.layerStats();
    ASSERT_EQ(stats.size(), 7u * cfg.nLayers + 1);
    uint64_t total_rows = 8 + 16 + 4;
    for (const auto &st : stats) {
        EXPECT_EQ(st->calls.load(), batch.size()) << st->name;
        EXPECT_EQ(st->rows.load(), total_rows) << st->name;
        EXPECT_GT(st->packedBytes, 0u) << st->name;
        EXPECT_LT(st->packedBytes, st->denseBytes) << st->name;
        // Every layer reports the tier it executes on.
        EXPECT_EQ(st->isa, simdIsaName(session.simdIsa())) << st->name;
        // The phase split is populated and consistent: quantize +
        // GEMM account for (most of, never more than) the layer's
        // wall time.
        EXPECT_GT(st->quantizeSeconds(), 0.0) << st->name;
        EXPECT_GT(st->gemmSeconds(), 0.0) << st->name;
        EXPECT_LE(st->quantizeSeconds() + st->gemmSeconds(),
                  st->seconds()) << st->name;
    }
    EXPECT_GT(session.linearSeconds(), 0.0);

    session.resetStats();
    EXPECT_EQ(session.linearSeconds(), 0.0);
    EXPECT_EQ(stats[0]->calls.load(), 0u);
    EXPECT_EQ(stats[0]->quantizeNanos.load(), 0u);
    EXPECT_EQ(stats[0]->gemmNanos.load(), 0u);
    // Weight accounting survives a stats reset.
    EXPECT_GT(session.packedWeightBytes(), 0u);
    EXPECT_LT(session.packedWeightBytes(),
              session.denseWeightBytes() / 7);
}

TEST(InferenceSession, ConcurrentForwardsStayCorrect)
{
    // The per-layer packing workspace is claimed by one forward at
    // a time; a concurrent forward on the same layer must fall back
    // to per-call scratch and still produce identical results
    // (packing is byte-exact and the GEMM is per-element
    // deterministic on every tier, whatever the interleaving).
    model::ModelConfig cfg = tinyConfig();
    InferenceSession session(cfg, {.threads = 1});
    std::vector<int> toks = randomTokens(6, cfg.vocab, 9);
    Matrix want = session.forward(toks);

    std::vector<Matrix> got(4);
    std::vector<std::thread> threads;
    for (size_t i = 0; i < got.size(); ++i)
        threads.emplace_back(
            [&, i] { got[i] = session.forward(toks); });
    for (auto &t : threads)
        t.join();
    for (const auto &g : got)
        test::expectMatricesBitExact(g, want);
}

TEST(InferenceSession, PackedFactoryPluggableWithoutStats)
{
    model::ModelConfig cfg = tinyConfig();
    model::TinyTransformer t(cfg);
    t.rebuild(packedLinearFactory());
    std::vector<int> toks = randomTokens(6, cfg.vocab, 5);
    Matrix logits = t.forwardLogits(toks);
    EXPECT_EQ(logits.rows(), 6u);
    EXPECT_EQ(logits.cols(), cfg.vocab);
}

} // anonymous namespace
} // namespace runtime
} // namespace m2x

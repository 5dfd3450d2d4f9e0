/**
 * @file
 * packedLinearFactory: a zoo model rebuilt with packed linears must
 * agree with the functional quantized transformer (bit-exactly on
 * the scalar kernel tier, within tolerance on vector tiers), and the
 * per-layer LayerStats accounting — including the reported ISA —
 * must add up.
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

using Stats = std::vector<std::shared_ptr<LayerStats>>;

TEST(PackedLinearFactory, MatchesFunctionalQuantizedTransformer)
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
        Stats stats;
        model::TinyTransformer packed(cfg);
        packed.rebuild(packedLinearFactory({}, nullptr, &stats, isa,
                                           PackedCodec::ElemEm));
        for (const auto &st : stats)
            EXPECT_EQ(st->isa, simdIsaName(isa)) << st->name;
        // Model-level tolerance: tiny linear-output differences pass
        // through layernorm/softmax, so the vector-tier bound is a
        // little looser than the raw GEMM contract.
        Matrix got = packed.forwardLogits(toks);
        if (isa == SimdIsa::Scalar)
            test::expectMatricesBitExact(got, want);
        else
            test::expectMatricesClose(got, want, 1e-5);
    }
}

TEST(PackedLinearFactory, BatchedForwardAndTimings)
{
    model::ModelConfig cfg = tinyConfig();
    ThreadPool pool(2);
    Stats stats;
    SimdIsa isa = activeSimdIsa();
    model::TinyTransformer m(cfg);
    m.rebuild(
        packedLinearFactory({}, &pool, &stats, isa, PackedCodec::ElemEm));

    std::vector<std::vector<int>> batch = {
        randomTokens(8, cfg.vocab, 2),
        randomTokens(16, cfg.vocab, 3),
        randomTokens(4, cfg.vocab, 4),
    };
    for (const auto &seq : batch) {
        Matrix logits = m.forwardLogits(seq);
        EXPECT_EQ(logits.rows(), seq.size());
        EXPECT_EQ(logits.cols(), cfg.vocab);
    }

    // 7 linears per layer + head, each called once per sequence.
    ASSERT_EQ(stats.size(), 7u * cfg.nLayers + 1);
    uint64_t total_rows = 8 + 16 + 4;
    size_t packed_bytes = 0, dense_bytes = 0;
    for (const auto &st : stats) {
        EXPECT_EQ(st->calls.load(), batch.size()) << st->name;
        EXPECT_EQ(st->rows.load(), total_rows) << st->name;
        EXPECT_GT(st->packedBytes, 0u) << st->name;
        EXPECT_LT(st->packedBytes, st->denseBytes) << st->name;
        // Every layer reports the tier it executes on.
        EXPECT_EQ(st->isa, simdIsaName(isa)) << st->name;
        // The phase split is populated and consistent: quantize +
        // GEMM account for (most of, never more than) the layer's
        // wall time.
        EXPECT_GT(st->seconds(), 0.0) << st->name;
        EXPECT_GT(st->quantizeSeconds(), 0.0) << st->name;
        EXPECT_GT(st->gemmSeconds(), 0.0) << st->name;
        EXPECT_LE(st->quantizeSeconds() + st->gemmSeconds(),
                  st->seconds()) << st->name;
        packed_bytes += st->packedBytes;
        dense_bytes += st->denseBytes;
    }

    for (const auto &st : stats) {
        st->reset();
        EXPECT_EQ(st->calls.load(), 0u) << st->name;
        EXPECT_EQ(st->rows.load(), 0u) << st->name;
        EXPECT_EQ(st->seconds(), 0.0) << st->name;
        EXPECT_EQ(st->quantizeNanos.load(), 0u) << st->name;
        EXPECT_EQ(st->gemmNanos.load(), 0u) << st->name;
        // Weight accounting survives a stats reset.
        EXPECT_GT(st->packedBytes, 0u) << st->name;
    }
    // elem_em weights: 4.5 bits per element plus row padding.
    EXPECT_LT(packed_bytes, dense_bytes / 7);
}

TEST(PackedLinearFactory, ConcurrentForwardsStayCorrect)
{
    // The per-layer packing workspace of the timing shim is claimed
    // by one forward at a time; a concurrent forward on the same
    // layer must fall back to per-call scratch and still produce
    // identical results (packing is byte-exact and the GEMM is
    // per-element deterministic on every tier, whatever the
    // interleaving). The codec follows M2X_FORMAT, so the forced-
    // format legs race each codec's encoder.
    model::ModelConfig cfg = tinyConfig();
    ThreadPool pool(1);
    Stats stats;
    model::TinyTransformer m(cfg);
    m.rebuild(packedLinearFactory({}, &pool, &stats, activeSimdIsa(),
                                  defaultPackedCodec()));
    std::vector<int> toks = randomTokens(6, cfg.vocab, 9);
    Matrix want = m.forwardLogits(toks);

    std::vector<Matrix> got(4);
    std::vector<std::thread> threads;
    for (size_t i = 0; i < got.size(); ++i)
        threads.emplace_back([&, i] { got[i] = m.forwardLogits(toks); });
    for (auto &t : threads)
        t.join();
    for (const auto &g : got)
        test::expectMatricesBitExact(g, want);
    for (const auto &st : stats)
        EXPECT_EQ(st->calls.load(), 1u + got.size()) << st->name;
}

TEST(PackedLinearFactory, PackedFactoryPluggableWithoutStats)
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

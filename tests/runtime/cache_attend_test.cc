/**
 * @file
 * CacheAttendBackend over KvCache: incremental prefill + stepwise
 * decode must reproduce the one-shot full forward — bit-exactly with
 * the fp32 cache (the oracle mode replicates the causal attention
 * arithmetic operation for operation), and within the established
 * model-level tolerance with the packed cache against a reference
 * that quantizes K/V through the functional §6.4 path. Covers ragged
 * batches, cache growth across prefill-chunk boundaries, and
 * single-token prefill.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/m2xfp.hh"
#include "runtime/kv_cache.hh"
#include "runtime/serving.hh"
#include "runtime_test_util.hh"

namespace m2x {
namespace runtime {
namespace {

using test::kvQuantizedReference;
using test::packedModel;
using test::randomTokens;
using test::runPrefillDecode;
using test::tinyConfig;

TEST(CacheAttendBackend, Fp32CacheMatchesOneShotExactly)
{
    model::ModelConfig cfg = tinyConfig();
    std::vector<int> toks = randomTokens(13, cfg.vocab, 1);
    for (SimdIsa isa : supportedSimdIsas()) {
        SCOPED_TRACE(std::string("isa=") + simdIsaName(isa));
        model::TinyTransformer m =
            packedModel(cfg, isa, defaultPackedCodec());
        KvCache cache(cfg.nLayers, cfg.kvDim(), KvCacheMode::Fp32, {},
                      isa);
        EXPECT_EQ(cache.simdIsa(), isa);
        Matrix got = runPrefillDecode(m, cache, toks, 6);
        // The fp32 cache replicates the full forward's arithmetic,
        // and per-row linear outputs are independent of the chunk's
        // row count on every tier — so incremental decode is
        // bit-exact against the one-shot forward, vector tiers
        // included.
        test::expectMatricesBitExact(got, m.forwardLogits(toks));
    }
}

TEST(CacheAttendBackend, PackedCacheMatchesKvQuantizedOneShot)
{
    model::ModelConfig cfg = tinyConfig();
    std::vector<int> toks = randomTokens(13, cfg.vocab, 2);
    for (SimdIsa isa : supportedSimdIsas()) {
        SCOPED_TRACE(std::string("isa=") + simdIsaName(isa));
        // Pinned to elem_em: the oracle below quantizes K/V through
        // the paper codec, whatever M2X_FORMAT says (cross-format
        // coverage lives in cross_format_parity_test).
        model::TinyTransformer m = packedModel(cfg, isa);
        KvCache cache(cfg.nLayers, cfg.kvDim(), KvCacheMode::Packed,
                      {}, isa);
        Matrix got = runPrefillDecode(m, cache, toks, 6);
        // The packed rows decode to exactly the values the
        // functional Elem-EM codec produces, so the only difference
        // vs the reference is attention-kernel reassociation —
        // held to the established model-level tolerance.
        model::TinyTransformer ref = kvQuantizedReference(cfg, isa);
        test::expectMatricesClose(got, ref.forwardLogits(toks),
                                  1e-5);
    }
}

TEST(CacheAttendBackend, PackedCacheNonMultipleOf32Width)
{
    // d_model = 40: every cached row ends in a padded tail group —
    // the packed tail must decode to the same values the functional
    // codec produces for the shorter trailing group.
    model::ModelConfig cfg = tinyConfig();
    cfg.dModel = 40;
    cfg.nHeads = 2;
    std::vector<int> toks = randomTokens(9, cfg.vocab, 3);
    SimdIsa isa = activeSimdIsa();
    model::TinyTransformer m = packedModel(cfg, isa);
    KvCache cache(cfg.nLayers, cfg.kvDim(), KvCacheMode::Packed);
    Matrix got = runPrefillDecode(m, cache, toks, 4);
    model::TinyTransformer ref = kvQuantizedReference(cfg, isa);
    test::expectMatricesClose(got, ref.forwardLogits(toks), 1e-5);
}

TEST(CacheAttendBackend, ChunkedPrefillCrossesGrowthBoundaries)
{
    model::ModelConfig cfg = tinyConfig();
    std::vector<int> toks = randomTokens(13, cfg.vocab, 4);
    std::span<const int> all(toks);
    SimdIsa isa = activeSimdIsa();
    PackedCodec codec = defaultPackedCodec();
    model::TinyTransformer m = packedModel(cfg, isa, codec);
    for (KvCacheMode mode :
         {KvCacheMode::Fp32, KvCacheMode::Packed}) {
        SCOPED_TRACE(kvCacheModeName(mode));
        KvCache whole(cfg.nLayers, cfg.kvDim(), mode, {}, isa, codec);
        KvCache chunked(cfg.nLayers, cfg.kvDim(), mode, {}, isa,
                        codec);
        CacheAttendBackend backend(nullptr, nullptr);
        Matrix want = backend.forwardChunk(m, whole, all);

        // 1 + 5 + 7 tokens: growth across chunk boundaries must be
        // invisible — identical logits (the engine is deterministic
        // whatever the chunking) and identical resident bytes.
        Matrix got(toks.size(), want.cols());
        size_t chunks[] = {1, 5, 7};
        size_t t0 = 0;
        for (size_t n : chunks) {
            Matrix part =
                backend.forwardChunk(m, chunked, all.subspan(t0, n));
            for (size_t t = 0; t < n; ++t)
                for (size_t c = 0; c < part.cols(); ++c)
                    got(t0 + t, c) = part(t, c);
            t0 += n;
        }
        test::expectMatricesBitExact(got, want);
        EXPECT_EQ(chunked.totalBytes(), whole.totalBytes());
    }
}

TEST(CacheAttendBackend, RaggedBatchDecode)
{
    model::ModelConfig cfg = tinyConfig();
    // Prompt lengths 5, 9 and 1 (single-token prefill edge case),
    // then four joint decode steps — every sequence must match its
    // own one-shot forward.
    std::vector<std::vector<int>> prompts = {
        randomTokens(5, cfg.vocab, 10),
        randomTokens(9, cfg.vocab, 11),
        randomTokens(1, cfg.vocab, 12),
    };
    const size_t steps = 4;
    std::vector<std::vector<int>> next(steps);
    for (size_t t = 0; t < steps; ++t)
        next[t] = randomTokens(prompts.size(), cfg.vocab, 20 + t);

    SimdIsa isa = activeSimdIsa();
    ThreadPool pool(2);
    model::TinyTransformer m =
        packedModel(cfg, isa, PackedCodec::ElemEm, &pool);
    model::TinyTransformer ref = kvQuantizedReference(cfg, isa);
    for (KvCacheMode mode :
         {KvCacheMode::Fp32, KvCacheMode::Packed}) {
        SCOPED_TRACE(kvCacheModeName(mode));
        // Every sequence's cache draws from one shared arena, as
        // the serving engine's do.
        KvPageArena arena(cfg.kvDim(), mode, {}, isa);
        std::vector<KvCache> caches;
        std::vector<KvCache *> rows;
        caches.reserve(prompts.size());
        CacheAttendBackend backend(&pool, nullptr);
        std::vector<std::vector<int>> full = prompts;
        std::vector<std::vector<Matrix>> step_logits(prompts.size());
        for (const std::vector<int> &p : prompts) {
            caches.emplace_back(arena, cfg.nLayers);
            rows.push_back(&caches.back());
            backend.forwardChunk(m, caches.back(), p);
        }
        for (size_t t = 0; t < steps; ++t) {
            Matrix logits = backend.forwardRows(m, rows, next[t]);
            ASSERT_EQ(logits.rows(), prompts.size());
            for (size_t i = 0; i < prompts.size(); ++i) {
                full[i].push_back(next[t][i]);
                Matrix row(1, logits.cols());
                for (size_t c = 0; c < logits.cols(); ++c)
                    row(0, c) = logits(i, c);
                step_logits[i].push_back(std::move(row));
            }
        }
        for (size_t i = 0; i < prompts.size(); ++i) {
            SCOPED_TRACE("seq " + std::to_string(i));
            EXPECT_EQ(caches[i].length(), full[i].size());
            Matrix want = mode == KvCacheMode::Fp32
                              ? m.forwardLogits(full[i])
                              : ref.forwardLogits(full[i]);
            // Check the decode-step rows (the last `steps` rows).
            for (size_t t = 0; t < steps; ++t) {
                size_t row = full[i].size() - steps + t;
                const Matrix &got = step_logits[i][t];
                for (size_t c = 0; c < want.cols(); ++c) {
                    double g = got(0, c), w = want(row, c);
                    if (mode == KvCacheMode::Fp32)
                        ASSERT_EQ(g, w) << "row " << row << " col "
                                        << c;
                    else
                        ASSERT_LE(std::abs(g - w),
                                  1e-5 * std::max(1.0, std::abs(w)))
                            << "row " << row << " col " << c;
                }
            }
        }
    }
}

TEST(CacheAttendBackend, KvBytesAccounting)
{
    model::ModelConfig cfg = tinyConfig();
    std::vector<int> toks = randomTokens(12, cfg.vocab, 30);
    SimdIsa isa = activeSimdIsa();
    PackedCodec codec = defaultPackedCodec();
    model::TinyTransformer m = packedModel(cfg, isa, codec);

    // Two sequences (12 and 7 tokens) on one arena per mode.
    size_t bytes[2];
    KvCacheMode modes[2] = {KvCacheMode::Packed, KvCacheMode::Fp32};
    for (int mi = 0; mi < 2; ++mi) {
        KvPageArena arena(cfg.kvDim(), modes[mi], {}, isa,
                          KvArenaConfig{.codec = codec});
        KvCache a(arena, cfg.nLayers), b(arena, cfg.nLayers);
        CacheAttendBackend backend(nullptr, nullptr);
        backend.forwardChunk(m, a, toks);
        backend.forwardChunk(m, b,
                             std::span<const int>(toks).subspan(0, 7));
        EXPECT_EQ(a.mode(), modes[mi]);
        bytes[mi] = a.totalBytes() + b.totalBytes();
    }
    size_t tokens = 12 + 7;
    // Per token per layer: K + V at groupsPerRow * bytesPerGroup each,
    // the width of whichever codec M2X_FORMAT picked; elem_em's is
    // pinned to the paper layout (18 B per 32 elements, 4.5 bits).
    const PackedCodecInfo &info = packedCodecInfo(codec);
    size_t group_bytes = static_cast<size_t>(
        info.bitsPerElement * info.groupSize / 8.0);
    if (codec == PackedCodec::ElemEm) {
        EXPECT_EQ(group_bytes, 18u);
        EXPECT_EQ(info.bitsPerElement, 4.5);
    }
    size_t groups = cfg.dModel / info.groupSize;
    size_t packed_want = tokens * 2 * cfg.nLayers * groups * group_bytes;
    size_t fp32_want =
        tokens * 2 * cfg.nLayers * cfg.dModel * sizeof(float);
    EXPECT_EQ(bytes[0], packed_want);
    EXPECT_EQ(bytes[1], fp32_want);
    EXPECT_DOUBLE_EQ(static_cast<double>(bytes[1]) /
                         static_cast<double>(bytes[0]),
                     32.0 / info.bitsPerElement);
}

} // anonymous namespace
} // namespace runtime
} // namespace m2x

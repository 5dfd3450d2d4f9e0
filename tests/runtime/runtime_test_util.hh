/**
 * @file
 * Shared helpers for the runtime test binaries: random operands,
 * ISA-aware matrix comparison, and the tiny model plus KV-cached
 * generation helpers the decode and serving oracles share.
 *
 * The scalar kernel tier is the bit-exact oracle; vector tiers may
 * reassociate the double accumulation, so they are held to a tight
 * relative tolerance instead. expectMatricesMatch picks the right
 * contract for the tier that produced the result.
 */

#ifndef M2X_TESTS_RUNTIME_RUNTIME_TEST_UTIL_HH__
#define M2X_TESTS_RUNTIME_RUNTIME_TEST_UTIL_HH__

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/m2xfp.hh"
#include "core/m2xfp_packed.hh"
#include "model/config.hh"
#include "model/transformer.hh"
#include "quant/matrix.hh"
#include "runtime/inference_session.hh"
#include "runtime/kv_cache.hh"
#include "runtime/serving.hh"
#include "runtime/simd.hh"
#include "util/rng.hh"

namespace m2x {
namespace runtime {
namespace test {

/** Tolerance contract for vector tiers: ≤ 1e-6 relative. */
constexpr double simdRelTol = 1e-6;

inline Matrix
randomMatrix(size_t r, size_t c, uint64_t seed, double dof)
{
    Matrix m(r, c);
    Rng rng(seed);
    for (auto &v : m.flat())
        v = static_cast<float>(rng.studentT(dof));
    return m;
}

/** Exact (bitwise) matrix equality. */
inline void
expectMatricesBitExact(const Matrix &got, const Matrix &want)
{
    ASSERT_TRUE(got.sameShape(want))
        << got.rows() << "x" << got.cols() << " vs " << want.rows()
        << "x" << want.cols();
    for (size_t i = 0; i < want.size(); ++i)
        ASSERT_EQ(got.flat()[i], want.flat()[i]) << "elem " << i;
}

/** Relative-tolerance matrix equality (floor of 1.0 on the scale). */
inline void
expectMatricesClose(const Matrix &got, const Matrix &want,
                    double rel = simdRelTol)
{
    ASSERT_TRUE(got.sameShape(want))
        << got.rows() << "x" << got.cols() << " vs " << want.rows()
        << "x" << want.cols();
    for (size_t i = 0; i < want.size(); ++i) {
        double g = got.flat()[i], w = want.flat()[i];
        double scale = std::max(1.0, std::abs(w));
        ASSERT_LE(std::abs(g - w), rel * scale)
            << "elem " << i << ": got " << g << " want " << w;
    }
}

/**
 * Hold @p got to the contract of the tier that produced it:
 * bit-exact for the scalar oracle, tight tolerance otherwise.
 */
inline void
expectMatricesMatch(const Matrix &got, const Matrix &want,
                    SimdIsa isa)
{
    if (isa == SimdIsa::Scalar)
        expectMatricesBitExact(got, want);
    else
        expectMatricesClose(got, want);
}

/**
 * Byte equality of all three packed streams (shape first). The
 * stream-geometry contract shared by the encoder, KV-cache and
 * page-arena exactness tests.
 */
inline void
expectPackedStreamsEqual(const PackedM2xfpTensor &got,
                         const PackedM2xfpTensor &want,
                         const char *what = "packed streams")
{
    ASSERT_EQ(got.rows(), want.rows()) << what;
    ASSERT_EQ(got.cols(), want.cols()) << what;
    EXPECT_EQ(got.elementStream(), want.elementStream())
        << what << ": element stream";
    EXPECT_EQ(got.scaleStream(), want.scaleStream())
        << what << ": scale stream";
    EXPECT_EQ(got.metadataStream(), want.metadataStream())
        << what << ": metadata stream";
}

/**
 * A one-row, one-group tensor of @p codec with every element byte
 * set to @p elem_byte — the raw-stream probe the decode-exactness
 * sweeps build for each of the 256 element-byte values.
 */
inline PackedM2xfpTensor
oneGroupTensor(uint8_t elem_byte, uint8_t scale_code,
               uint8_t meta_byte,
               PackedCodec codec = PackedCodec::ElemEm)
{
    const PackedCodecInfo &info = packedCodecInfo(codec);
    std::vector<uint8_t> elems(info.bytesPerGroupElems, elem_byte);
    return PackedM2xfpTensor::fromRawStreams(
        1, info.groupSize, std::move(elems), {scale_code},
        {meta_byte}, codec);
}

/** The small transformer every decode and serving test runs. */
inline model::ModelConfig
tinyConfig()
{
    model::ModelConfig cfg;
    cfg.name = "test-tiny";
    cfg.dModel = 64;
    cfg.nHeads = 2;
    cfg.nLayers = 2;
    cfg.dFf = 96;
    cfg.vocab = 64;
    cfg.seed = 7;
    return cfg;
}

inline std::vector<int>
randomTokens(size_t n, unsigned vocab, uint64_t seed)
{
    std::vector<int> toks(n);
    Rng rng(seed);
    for (auto &t : toks)
        t = static_cast<int>(rng.uniformInt(vocab));
    return toks;
}

/** Greedy sampling: the arg-max logit of one row. */
inline int
argmaxRow(const Matrix &logits, size_t row)
{
    size_t best = 0;
    for (size_t c = 1; c < logits.cols(); ++c)
        if (logits(row, c) > logits(row, best))
            best = c;
    return static_cast<int>(best);
}

/** A model whose linear layers run packed in @p codec on @p isa. */
inline model::TinyTransformer
packedModel(const model::ModelConfig &cfg, SimdIsa isa,
            PackedCodec codec = PackedCodec::ElemEm,
            ThreadPool *pool = nullptr)
{
    model::TinyTransformer m(cfg);
    m.rebuild(packedLinearFactory({}, pool, nullptr, isa, codec));
    return m;
}

/** A reference model with functionally §6.4-quantized K/V. */
inline model::TinyTransformer
kvQuantizedReference(const model::ModelConfig &cfg, SimdIsa isa)
{
    model::TinyTransformer ref = packedModel(cfg, isa);
    ref.setKvQuantizers(
        [] {
            return std::make_shared<ElemEmQuantizer>(
                makeM2xfpActivationQuantizer());
        },
        nullptr);
    return ref;
}

/**
 * Prefill the first @p prefill_len tokens into @p cache as one
 * chunk, then decode the rest one token per step; returns the
 * assembled [tokens, vocab] logits.
 */
inline Matrix
runPrefillDecode(const model::TinyTransformer &m, KvCache &cache,
                 const std::vector<int> &toks, size_t prefill_len)
{
    CacheAttendBackend backend(nullptr, nullptr);
    std::span<const int> all(toks);
    Matrix chunk =
        backend.forwardChunk(m, cache, all.subspan(0, prefill_len));
    Matrix out(toks.size(), chunk.cols());
    for (size_t t = 0; t < prefill_len; ++t)
        for (size_t c = 0; c < chunk.cols(); ++c)
            out(t, c) = chunk(t, c);
    KvCache *const row[] = {&cache};
    for (size_t t = prefill_len; t < toks.size(); ++t) {
        Matrix step = backend.forwardRows(m, row, all.subspan(t, 1));
        EXPECT_EQ(step.rows(), 1u);
        for (size_t c = 0; c < step.cols(); ++c)
            out(t, c) = step(0, c);
    }
    EXPECT_EQ(cache.length(), toks.size());
    return out;
}

/**
 * The serving parity oracle: @p prompt generated greedily alone,
 * one KV-cached step per token, on @p isa with @p codec in the
 * linear layers and (packed mode) the KV pages.
 */
inline std::vector<int>
greedyReference(const model::ModelConfig &mc, KvCacheMode mode,
                SimdIsa isa, PackedCodec codec,
                const std::vector<int> &prompt, size_t max_new)
{
    model::TinyTransformer m = packedModel(mc, isa, codec);
    KvCache cache(mc.nLayers, mc.kvDim(), mode, {}, isa, codec);
    CacheAttendBackend backend(nullptr, nullptr);
    Matrix logits = backend.forwardChunk(m, cache, prompt);
    std::vector<int> out{argmaxRow(logits, logits.rows() - 1)};
    KvCache *const row[] = {&cache};
    while (out.size() < max_new) {
        int next = out.back();
        out.push_back(
            argmaxRow(backend.forwardRows(m, row, {&next, 1}), 0));
    }
    return out;
}

} // namespace test
} // namespace runtime
} // namespace m2x

#endif // M2X_TESTS_RUNTIME_RUNTIME_TEST_UTIL_HH__

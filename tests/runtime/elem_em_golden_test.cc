/**
 * @file
 * Elem-EM byte-exactness lock: golden FNV-1a hashes of the packed
 * streams and kernel decode outputs for a fixed adversarial input,
 * captured on the pre-codec-seam runtime (PR 9 HEAD) and asserted
 * here on every compiled ISA tier.
 *
 * The codec-traits seam's hardest contract is that the paper-pair
 * fast paths stay byte-for-byte what they always were: the per-ISA
 * activation encoder, the GEMM panel/row decode kernels, and the KV
 * page encode path must produce the exact same bytes as before any
 * format axis existed. Stream-vs-stream tests can only prove
 * today's paths agree with each other; these constants prove they
 * agree with *history*. If any hash changes, the seam broke the
 * legacy format — that is a regression, never a baseline to update.
 *
 * The encoder/decoder byte-exactness contract is ISA-uniform, so a
 * single constant per artifact covers every tier; the test loops
 * over supportedSimdIsas() and holds each to the same value.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/m2xfp.hh"
#include "core/m2xfp_packed.hh"
#include "quant/matrix.hh"
#include "runtime/kv_page_arena.hh"
#include "runtime/packed_gemm_kernels.hh"
#include "runtime/simd.hh"
#include "runtime/thread_pool.hh"
#include "util/rng.hh"

namespace m2x {
namespace runtime {
namespace {

/** @{ Pre-seam golden hashes (captured at PR 9 HEAD, all tiers). */
constexpr uint64_t goldenEncoderHash = 0xf76e2138fdd2434full;
constexpr uint64_t goldenGemmPanelHash = 0x1d744453a5b4ed36ull;
constexpr uint64_t goldenKvPagesHash = 0x23246e7da98456dfull;
/** @} */

/** Raw weight streams of the functional Sg-EM packer on
 *  goldenWeights(), captured before the runtime weight packer
 *  existed. */
constexpr uint64_t goldenWeightStreamsHash = 0x2e52ccdbd4a38b4full;

constexpr uint64_t fnvBasis = 0xcbf29ce484222325ull;
constexpr uint64_t fnvPrime = 0x100000001b3ull;

uint64_t
fnv1a(const void *data, size_t n, uint64_t h = fnvBasis)
{
    const uint8_t *p = static_cast<const uint8_t *>(data);
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= fnvPrime;
    }
    return h;
}

uint64_t
hashStreams(const PackedM2xfpTensor &t, uint64_t h = fnvBasis)
{
    h = fnv1a(t.elementStream().data(), t.elementStream().size(), h);
    h = fnv1a(t.scaleStream().data(), t.scaleStream().size(), h);
    h = fnv1a(t.metadataStream().data(), t.metadataStream().size(),
              h);
    return h;
}

/**
 * The fixed input: heavy-tailed random fill with specials (signed
 * zeros, denormal, FP4 rounding ties, scale-clamp magnitudes) at
 * fixed positions. Any change to this recipe invalidates the
 * constants — don't touch it.
 */
Matrix
goldenMatrix(size_t r, size_t c, uint64_t seed)
{
    Matrix m(r, c);
    Rng rng(seed);
    for (auto &v : m.flat())
        v = static_cast<float>(rng.studentT(4.0));
    const float specials[] = {0.0f,    -0.0f,  1e-40f, 3.0f,
                              -1.25f,  448.0f, 0.25f,  5.0f,
                              1e30f,   -1e-30f, 0.75f, 1.75f};
    size_t n = m.size();
    for (size_t i = 0; i < sizeof(specials) / sizeof(float); ++i)
        m.flat()[(i * 97) % n] = specials[i];
    return m;
}

Matrix
goldenActivations()
{
    return goldenMatrix(13, 100, 0xE1);
}

/**
 * The weight-stream input: a larger goldenMatrix (300 columns, so
 * every row ends in a 12-element tail group) plus what a weight
 * encoder has to survive — non-finite elements, FLT_MAX, denormals,
 * FP4 ties under each subgroup multiplier, a row that clamps the
 * shared exponent at the bottom of the E8M0 range and a row near the
 * top. Same rule as goldenMatrix: never touch the recipe.
 */
Matrix
goldenWeights()
{
    Matrix m = goldenMatrix(48, 300, 0xE3);
    const float inf = std::numeric_limits<float>::infinity();
    const float specials[] = {
        inf,      -inf,     std::numeric_limits<float>::quiet_NaN(),
        FLT_MAX,  -FLT_MAX, std::numeric_limits<float>::denorm_min(),
        -1e-41f,  3.125f,   -5.25f,
        8.75f,    0.9375f,  -4.375f};
    size_t n = m.size();
    for (size_t i = 0; i < sizeof(specials) / sizeof(float); ++i)
        m.flat()[(i * 131 + 7) % n] = specials[i];
    for (size_t c = 0; c < m.cols(); ++c) {
        m(5, c) = std::ldexp(m(5, c), -135);
        m(6, c) = std::ldexp(m(6, c), 120);
    }
    return m;
}

TEST(ElemEmGolden, EncoderStreamsOnEveryTier)
{
    ElemEmQuantizer q = makeM2xfpActivationQuantizer();
    Matrix am = goldenActivations();
    for (SimdIsa isa : supportedSimdIsas()) {
        SCOPED_TRACE(std::string("isa=") + simdIsaName(isa));
        PackedM2xfpTensor a =
            PackedM2xfpTensor::packActivations(am, q, nullptr, isa);
        EXPECT_EQ(hashStreams(a), goldenEncoderHash);
    }
}

TEST(ElemEmGolden, GemmPanelDecodeOnEveryTier)
{
    ElemEmQuantizer aq = makeM2xfpActivationQuantizer();
    SgEmQuantizer wq = makeM2xfpWeightQuantizer();
    Matrix am = goldenActivations();
    Matrix wm = goldenMatrix(9, 100, 0xE2);
    PackedM2xfpTensor w = PackedM2xfpTensor::packWeights(wm, wq);
    for (SimdIsa isa : supportedSimdIsas()) {
        SCOPED_TRACE(std::string("isa=") + simdIsaName(isa));
        PackedM2xfpTensor a =
            PackedM2xfpTensor::packActivations(am, aq, nullptr, isa);
        const auto &kern = detail::gemmKernels(isa);
        size_t padded_k = a.groupsPerRow() * 32;
        std::vector<float> buf(padded_k);
        uint64_t h = fnvBasis;
        for (size_t r = 0; r < a.rows(); ++r) {
            kern.decodeActivationRows(a, r, 1, padded_k, buf.data());
            h = fnv1a(buf.data(), buf.size() * sizeof(float), h);
        }
        for (size_t r = 0; r < w.rows(); ++r) {
            kern.decodeWeightRows(w, r, 1, padded_k, buf.data());
            h = fnv1a(buf.data(), buf.size() * sizeof(float), h);
        }
        EXPECT_EQ(h, goldenGemmPanelHash);
    }
}

TEST(ElemEmGolden, WeightStreamsOnEveryTier)
{
    // The functional packer is the oracle the constant was captured
    // from; the constructor's runtime packer (every tier, and every
    // E8M0 codec's weight role) must reproduce it byte for byte.
    SgEmQuantizer wq = makeM2xfpWeightQuantizer();
    Matrix wm = goldenWeights();
    EXPECT_EQ(hashStreams(PackedM2xfpTensor::packWeights(wm, wq)),
              goldenWeightStreamsHash);
    ThreadPool pool(2);
    for (SimdIsa isa : supportedSimdIsas()) {
        SCOPED_TRACE(std::string("isa=") + simdIsaName(isa));
        EXPECT_EQ(hashStreams(PackedM2xfpTensor::packWeights(
                      wm, wq, &pool, isa)),
                  goldenWeightStreamsHash);
        for (PackedCodec c : {PackedCodec::ElemEm, PackedCodec::ElemEe,
                              PackedCodec::SgEm}) {
            SCOPED_TRACE(packedCodecName(c));
            EXPECT_EQ(hashStreams(PackedM2xfpTensor::packWeightsCodec(
                          wm, c, &pool, isa)),
                      goldenWeightStreamsHash);
        }
    }
}

TEST(ElemEmGolden, KvPageStreamsOnEveryTier)
{
    Matrix am = goldenActivations();
    for (SimdIsa isa : supportedSimdIsas()) {
        SCOPED_TRACE(std::string("isa=") + simdIsaName(isa));
        KvPageArena arena(100, KvCacheMode::Packed, {}, isa,
                          {.pageRows = 4, .capacityPages = 8});
        std::vector<KvPageId> ids;
        size_t row = 0;
        while (row < am.rows()) {
            size_t n = std::min<size_t>(4, am.rows() - row);
            KvPageId id = arena.allocPage();
            ASSERT_NE(id, kvInvalidPage);
            arena.appendRows(id, am.data() + row * am.cols(), n);
            ids.push_back(id);
            row += n;
        }
        uint64_t h = fnvBasis;
        for (KvPageId id : ids)
            h = hashStreams(arena.packedPage(id), h);
        EXPECT_EQ(h, goldenKvPagesHash);
    }
}

} // anonymous namespace
} // namespace runtime
} // namespace m2x

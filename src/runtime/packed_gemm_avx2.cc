/**
 * @file
 * AVX2+FMA tier of the packed GEMM: vectorized LUT decode of the
 * M2XFP byte streams, one Sg-EM sliver decode feeding both GEMM
 * paths, and R x 8 register tiles over 4-wide double accumulators
 * (R <= 4).
 *
 * Decode: both nibbles of each packed element byte are split with
 * byte ops, widened to 32-bit lanes, and the 16-entry FP4 E2M1 table
 * collapses to an 8-entry magnitude permute (vpermps) plus a sign
 * XOR — exactly the CodecTraits tables' values, so the decoded floats
 * are bit-identical to the generic traits kernels (asserted by
 * tests/runtime/simd_test.cc over all 256 byte values per stream).
 * The Elem-EM top-1 argmax is a horizontal max per subgroup; the
 * winner's FP6 value is one scalar table read. The sliver decode
 * runs the same magnitude permute on 8 weight rows at once: one
 * masked vpgatherdd per (group, subgroup) loads each row's 32-bit
 * element word, and every depth position becomes one 8-lane lookup,
 * a per-lane scale multiply and a widening to two 4-double vectors —
 * stored as a k-major panel row, or at M <= 4 FMA'd straight into
 * the decode-fused tile's row accumulators, with no panel.
 *
 * Accumulate: per depth step the two 4-wide W vectors and each row's
 * A broadcast feed 2R independent FMA chains — 8 at R = 4, enough to
 * cover the FMA latency at two issues per cycle. Each output is one
 * ascending-p chain in either path. FMA contraction rounds
 * differently from the scalar oracle's separate multiply and add;
 * parity is tolerance-checked, never assumed bit-exact.
 *
 * This translation unit is compiled with -mavx2 -mfma and must only
 * be entered through the runtime dispatch (simdIsaAvailable guards).
 */

#include <immintrin.h>

#include <bit>
#include <climits>

#include "runtime/codec_traits.hh"
#include "runtime/packed_gemm_kernels.hh"
#include "util/logging.hh"

namespace m2x {
namespace runtime {
namespace detail {

namespace {

constexpr size_t groupSize = PackedM2xfpTensor::groupSize;
constexpr unsigned subgroupSize = PackedM2xfpTensor::subgroupSize;
constexpr unsigned bytesPerGroup =
    PackedM2xfpTensor::bytesPerGroupElems;
constexpr unsigned nSubgroups = groupSize / subgroupSize;

/**
 * The E8M0 codecs' traits tables plus their vector-register forms.
 * Every stream this tier decodes is an E8M0 g32/sg8 stream
 * (decodeFamily), and those codecs share one set of tables.
 */
struct Avx2Tables
{
    const CodecTraits *tr;
    __m256 fp4Mag;   //!< fp4Value[0..7]: the positive half
    __m256 subMult;  //!< lanes 0..3: the subgroup multipliers
};

const Avx2Tables &
tables()
{
    static const Avx2Tables t = [] {
        const CodecTraits &tr = CodecTraits::get(PackedCodec::ElemEm);
        // The vector decode reconstructs negative codes as
        // sign-bit XOR on the positive entry; that is only
        // bit-identical to the scalar table if the table itself is
        // sign-symmetric (it is, for FP4 E2M1 — including -0.0).
        for (unsigned i = 0; i < 8; ++i)
            m2x_assert(std::bit_cast<uint32_t>(tr.fp4Value[8 + i]) ==
                       (std::bit_cast<uint32_t>(tr.fp4Value[i]) ^
                        0x80000000u),
                       "FP4 value table is not sign-symmetric");
        return Avx2Tables{
            &tr, _mm256_loadu_ps(tr.fp4Value),
            _mm256_castps128_ps256(_mm_loadu_ps(tr.subMult))};
    }();
    return t;
}

/** FP4 decode of 8 codes (32-bit lanes): magnitude permute + sign. */
inline __m256
decodeFp4x8(__m256i codes, __m256 mag_table)
{
    __m256i mag = _mm256_and_si256(codes, _mm256_set1_epi32(7));
    __m256i sign = _mm256_slli_epi32(
        _mm256_and_si256(codes, _mm256_set1_epi32(8)), 28);
    __m256 val = _mm256_permutevar8x32_ps(mag_table, mag);
    return _mm256_xor_ps(val, _mm256_castsi256_ps(sign));
}

/**
 * Split one group's 16 packed bytes into 32 interleaved 4-bit codes
 * (element order: byte i's low nibble is element 2i), returned as
 * four 8-code chunks — one per subgroup.
 */
inline void
splitNibbles(const uint8_t *bytes, __m128i chunk[4])
{
    __m128i raw = _mm_loadu_si128(
        reinterpret_cast<const __m128i *>(bytes));
    __m128i mask = _mm_set1_epi8(0x0f);
    __m128i lo = _mm_and_si128(raw, mask);
    __m128i hi = _mm_and_si128(_mm_srli_epi16(raw, 4), mask);
    __m128i il0 = _mm_unpacklo_epi8(lo, hi); // codes 0..15
    __m128i il1 = _mm_unpackhi_epi8(lo, hi); // codes 16..31
    chunk[0] = il0;
    chunk[1] = _mm_srli_si128(il0, 8);
    chunk[2] = il1;
    chunk[3] = _mm_srli_si128(il1, 8);
}

} // anonymous namespace

void
decodeWeightGroupAvx2(const PackedM2xfpTensor &t, size_t row,
                      size_t group, float *out)
{
    const Avx2Tables &tab = tables();
    float sval = tab.tr->scaleValue[t.scaleCode(row, group)];
    uint8_t meta = t.groupMetaByte(row, group);

    __m128i chunk[4];
    splitNibbles(t.groupElementBytes(row, group), chunk);
    // One subgroup = one 8-lane vector; same two multiplies in the
    // same order as the scalar decode (value * (sval * mult)).
    for (unsigned s = 0; s < nSubgroups; ++s) {
        float mult = tab.tr->subMult[(meta >> (2 * s)) & 0x3u];
        __m256 scale = _mm256_set1_ps(sval * mult);
        __m256 val = decodeFp4x8(_mm256_cvtepu8_epi32(chunk[s]),
                                 tab.fp4Mag);
        _mm256_storeu_ps(out + subgroupSize * s,
                         _mm256_mul_ps(val, scale));
    }
}

void
decodeActivationGroupAvx2(const PackedM2xfpTensor &t, size_t row,
                          size_t group, float *out)
{
    const Avx2Tables &tab = tables();
    const uint8_t *bytes = t.groupElementBytes(row, group);
    float sval = tab.tr->scaleValue[t.scaleCode(row, group)];
    uint8_t meta = t.groupMetaByte(row, group);

    __m128i chunk[4];
    splitNibbles(bytes, chunk);
    __m256 scale = _mm256_set1_ps(sval);
    alignas(16) uint8_t codes[groupSize];
    // Elem-EM top-1 selection in the same pass: the subgroup's
    // argmax of (code & 7) with ties to the lowest index, found as
    // a horizontal max over keys (mag << 3) | (7 - lane) — equal
    // magnitudes then rank by descending (7 - lane), i.e. the
    // lowest lane wins, exactly the scalar decode's strict-compare
    // scan. The winning element is re-read from the metadata-
    // adjusted FP6 table, matching the generic kernel bit for bit.
    const __m256i lane_rev =
        _mm256_setr_epi32(7, 6, 5, 4, 3, 2, 1, 0);
    for (unsigned s = 0; s < nSubgroups; ++s) {
        _mm_storel_epi64(
            reinterpret_cast<__m128i *>(codes + subgroupSize * s),
            chunk[s]);
        __m256i c32 = _mm256_cvtepu8_epi32(chunk[s]);
        __m256 val = decodeFp4x8(c32, tab.fp4Mag);
        _mm256_storeu_ps(out + subgroupSize * s,
                         _mm256_mul_ps(val, scale));

        __m256i mag = _mm256_and_si256(c32, _mm256_set1_epi32(7));
        __m256i key = _mm256_or_si256(_mm256_slli_epi32(mag, 3),
                                      lane_rev);
        __m128i mx = _mm_max_epi32(_mm256_castsi256_si128(key),
                                   _mm256_extracti128_si256(key, 1));
        mx = _mm_max_epi32(
            mx, _mm_shuffle_epi32(mx, _MM_SHUFFLE(1, 0, 3, 2)));
        mx = _mm_max_epi32(
            mx, _mm_shuffle_epi32(mx, _MM_SHUFFLE(2, 3, 0, 1)));
        unsigned best =
            7u - (static_cast<uint32_t>(_mm_cvtsi128_si32(mx)) & 7u);
        uint8_t mcode = (meta >> (2 * s)) & 0x3u;
        out[s * subgroupSize + best] =
            tab.tr->top1Value[codes[s * subgroupSize + best]]
                                [mcode] *
            sval;
    }
}

void
decodeActivationRowsAvx2(const PackedM2xfpTensor &t, size_t row0,
                         size_t n_rows, size_t stride, float *out)
{
    for (size_t r = 0; r < n_rows; ++r)
        for (size_t g = 0; g < t.groupsPerRow(); ++g)
            decodeActivationGroupAvx2(t, row0 + r, g,
                                      out + r * stride + g * groupSize);
}

void
decodeWeightRowsAvx2(const PackedM2xfpTensor &t, size_t row0,
                     size_t n_rows, size_t stride, float *out)
{
    for (size_t r = 0; r < n_rows; ++r)
        for (size_t g = 0; g < t.groupsPerRow(); ++g)
            decodeWeightGroupAvx2(t, row0 + r, g,
                                  out + r * stride + g * groupSize);
}

namespace {

/**
 * The tier's one Sg-EM sliver decode: sink(p, lo, hi) for every depth
 * position p of the weight rows [jbase, jbase + jlim) in ascending
 * order, lanes 0..3 and 4..7 widened to double; the pad lanes and
 * the depth pad (p >= w.cols()) are +0.0.
 */
template <class Sink>
inline __attribute__((always_inline)) void
forEachSliverDepthAvx2(const PackedM2xfpTensor &w, size_t jbase,
                       size_t jlim, Sink &&sink)
{
    m2x_assert(jlim >= 1 && jlim <= 8, "Avx2 sliver decode: jlim=%zu",
               jlim);
    const Avx2Tables &tab = tables();
    const size_t gpr = w.groupsPerRow();
    const size_t row_bytes = gpr * bytesPerGroup;
    m2x_assert(row_bytes * 7 <= INT_MAX,
               "Avx2 sliver decode: %zu-byte rows overflow the gather "
               "offsets", row_bytes);
    const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    const __m256i live = _mm256_cmpgt_epi32(
        _mm256_set1_epi32(static_cast<int>(jlim)), lane);
    const __m256i row_off = _mm256_mullo_epi32(
        _mm256_set1_epi32(static_cast<int>(row_bytes)), lane);
    const __m256i nibble = _mm256_set1_epi32(0xf);
    const uint8_t *scales = w.scaleStream().data() + jbase * gpr;
    const uint8_t *metas = w.metadataStream().data() + jbase * gpr;
    const uint8_t *elems = w.groupElementBytes(jbase, 0);

    for (size_t g = 0; g < gpr; ++g) {
        // Per-lane shared scale and metadata byte; the pad lanes keep
        // scale 0 and element code 0, so they decode to +0.0.
        alignas(32) float sval[8] = {};
        alignas(32) uint32_t meta[8] = {};
        for (size_t l = 0; l < jlim; ++l) {
            sval[l] = tab.tr->scaleValue[scales[l * gpr + g]];
            meta[l] = metas[l * gpr + g];
        }
        const __m256 sv = _mm256_load_ps(sval);
        const __m256i md = _mm256_load_si256(
            reinterpret_cast<const __m256i *>(meta));
        for (unsigned s = 0; s < nSubgroups; ++s) {
            // Same two multiplies in the same order as the scalar
            // decode: value * (sval * mult).
            __m256i mcode = _mm256_and_si256(
                _mm256_srlv_epi32(md, _mm256_set1_epi32(2 * s)),
                _mm256_set1_epi32(3));
            __m256 scale = _mm256_mul_ps(
                sv, _mm256_permutevar8x32_ps(tab.subMult, mcode));
            // The subgroup's 8 codes are one 32-bit word per row:
            // element e sits at bits 4e.
            __m256i word = _mm256_mask_i32gather_epi32(
                _mm256_setzero_si256(),
                reinterpret_cast<const int *>(
                    elems + g * bytesPerGroup +
                    s * (subgroupSize / 2)),
                row_off, live, 1);
            size_t p = g * groupSize + s * subgroupSize;
            for (unsigned e = 0; e < subgroupSize; ++e, ++p) {
                __m256 v = _mm256_setzero_ps();
                if (p < w.cols())
                    v = _mm256_mul_ps(
                        decodeFp4x8(_mm256_and_si256(word, nibble),
                                    tab.fp4Mag),
                        scale);
                word = _mm256_srli_epi32(word, 4);
                sink(p, _mm256_cvtps_pd(_mm256_castps256_ps128(v)),
                     _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1)));
            }
        }
    }
}

/**
 * The R x 8 register tile of both GEMM paths: R rows of
 * accumulators from +0.0 (@p zero) or @p acc, 2R FMA chains over
 * the W vectors @p feed hands it in ascending p, stored to @p acc.
 * Each output is the same chain for any R and either feed, so a
 * row's bits depend on neither its batch nor the path.
 */
template <size_t R, class Feed>
inline __attribute__((always_inline)) void
tileAvx2(const double *a, size_t a_stride, bool zero, double *acc,
         size_t acc_stride, Feed &&feed)
{
    __m256d c_lo[R], c_hi[R];
#pragma GCC unroll 4
    for (size_t ii = 0; ii < R; ++ii) {
        c_lo[ii] = zero ? _mm256_setzero_pd()
                        : _mm256_loadu_pd(acc + ii * acc_stride);
        c_hi[ii] = zero ? _mm256_setzero_pd()
                        : _mm256_loadu_pd(acc + ii * acc_stride + 4);
    }
    feed([&](size_t p, __m256d wl, __m256d wh) {
#pragma GCC unroll 4
        for (size_t ii = 0; ii < R; ++ii) {
            __m256d av = _mm256_broadcast_sd(a + ii * a_stride + p);
            c_lo[ii] = _mm256_fmadd_pd(av, wl, c_lo[ii]);
            c_hi[ii] = _mm256_fmadd_pd(av, wh, c_hi[ii]);
        }
    });
#pragma GCC unroll 4
    for (size_t ii = 0; ii < R; ++ii) {
        _mm256_storeu_pd(acc + ii * acc_stride, c_lo[ii]);
        _mm256_storeu_pd(acc + ii * acc_stride + 4, c_hi[ii]);
    }
}

} // anonymous namespace

void
decodeWeightSliverAvx2(const PackedM2xfpTensor &w, size_t jbase,
                       size_t jlim, size_t nr, double *sl)
{
    m2x_assert(nr == 8, "decodeWeightSliverAvx2: nr=%zu", nr);
    forEachSliverDepthAvx2(
        w, jbase, jlim, [sl](size_t p, __m256d lo, __m256d hi) {
            _mm256_storeu_pd(sl + p * 8, lo);
            _mm256_storeu_pd(sl + p * 8 + 4, hi);
        });
}

void
sliverTileKernelAvx2(const PackedM2xfpTensor &w, size_t jbase,
                     size_t jlim, const double *a, size_t a_stride,
                     size_t rows, double *c)
{
    withTileRows<4>(rows, [&](auto r) {
        tileAvx2<decltype(r)::value>(
            a, a_stride, true, c, 8, [&](auto &&fma) {
                forEachSliverDepthAvx2(w, jbase, jlim, fma);
            });
    });
}

void
microKernelAvx2(const double *a, size_t a_stride, const double *ws,
                size_t nr, size_t p0, size_t p1, size_t mr_cur,
                double *acc, size_t acc_stride)
{
    m2x_assert(nr == 8, "microKernelAvx2 expects nr=8, got %zu", nr);
    withTileRows<4>(mr_cur, [&](auto r) {
        tileAvx2<decltype(r)::value>(
            a, a_stride, false, acc, acc_stride, [&](auto &&fma) {
                for (size_t p = p0; p < p1; ++p)
                    fma(p, _mm256_loadu_pd(ws + p * 8),
                        _mm256_loadu_pd(ws + p * 8 + 4));
            });
    });
}

} // namespace detail
} // namespace runtime
} // namespace m2x

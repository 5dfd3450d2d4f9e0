/**
 * @file
 * AVX-512 (F+BW) tier of the packed GEMM: full-table vector LUT
 * decode of the M2XFP weight streams and an 8x16 broadcast-form FMA
 * microkernel over 8-wide double accumulators.
 *
 * Decode: the 16-entry FP4 E2M1 value table fits one zmm register,
 * so a single vpermps (_mm512_permutexvar_ps) decodes 16 codes at
 * once — no sign-split needed, unlike the AVX2 tier's 8-entry
 * magnitude permute. The four Sg-EM subgroup scales of a group are
 * staged in one xmm and expanded to per-lane scale vectors with a
 * second permutexvar, keeping the multiply order identical to the
 * scalar decode (value * (sval * mult)), so the decoded floats are
 * bit-identical to runtime/decode_lut (asserted by
 * tests/runtime/simd_test.cc). The W panel skips the row layout
 * entirely: the sliver decoder gathers one subgroup's 32-bit element
 * word from each of the 16 rows with one masked vpgatherdd, then per
 * depth position shifts out the nibble, looks it up with the same
 * vpermps, applies the per-lane subgroup scale and stores two
 * widened 8-double vectors — the k-major sliver row, bit-identical
 * to row decode plus transpose (tests/runtime/packed_gemm_test.cc).
 * Activation-role row decode is shared with the AVX2 tier: its
 * Elem-EM top-1 fix-up is already vectorized there and
 * bit-identical, and re-deriving it per ISA would only add surface
 * for drift.
 *
 * Accumulate: per depth step the k-major sliver contributes two
 * 8-wide W vectors and each of the (up to) 8 A rows one broadcast —
 * 16 independent FMA chains across 19 live zmm registers for a full
 * tile, deep enough to cover the FMA latency at two issues per
 * cycle. A ragged tile (fewer rows, e.g. a decode step's batch) still
 * sweeps the sliver once for all its rows. Lane partials
 * persist in the block accumulator across KC slices; the summation
 * order differs from the scalar oracle, so parity is
 * tolerance-checked, never assumed bit-exact.
 *
 * This translation unit is compiled with -mavx2 -mfma -mavx512f
 * -mavx512bw and must only be entered through the runtime dispatch
 * (simdIsaAvailable guards).
 */

#include <immintrin.h>

#include <algorithm>
#include <climits>

#include "runtime/decode_lut.hh"
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

/** Scalar tables plus their vector-register forms. */
struct Avx512Tables
{
    const DecodeTables *lut;
    __m512 fp4Value;     //!< the full 16-entry FP4 table
    __m512 sgEmMult;     //!< lanes 0..3: the subgroup multipliers
    __m512i sgIdxLo;     //!< lane -> subgroup index, elements 0..15
    __m512i sgIdxHi;     //!< same for elements 16..31
};

const Avx512Tables &
tables()
{
    static const Avx512Tables t = [] {
        const DecodeTables &lut = DecodeTables::get();
        return Avx512Tables{
            &lut, _mm512_loadu_ps(lut.fp4Value),
            _mm512_castps128_ps512(_mm_loadu_ps(lut.sgEmMult)),
            _mm512_set_epi32(1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0,
                             0, 0, 0),
            _mm512_set_epi32(3, 3, 3, 3, 3, 3, 3, 3, 2, 2, 2, 2, 2,
                             2, 2, 2)};
    }();
    return t;
}

/**
 * Split one group's 16 packed bytes into 32 interleaved 4-bit codes
 * (element order: byte i's low nibble is element 2i), returned as
 * two 16-code chunks.
 */
inline void
splitNibbles(const uint8_t *bytes, __m128i chunk[2])
{
    __m128i raw = _mm_loadu_si128(
        reinterpret_cast<const __m128i *>(bytes));
    __m128i mask = _mm_set1_epi8(0x0f);
    __m128i lo = _mm_and_si128(raw, mask);
    __m128i hi = _mm_and_si128(_mm_srli_epi16(raw, 4), mask);
    chunk[0] = _mm_unpacklo_epi8(lo, hi); // codes 0..15
    chunk[1] = _mm_unpackhi_epi8(lo, hi); // codes 16..31
}

} // anonymous namespace

void
decodeWeightGroupAvx512(const PackedM2xfpTensor &t, size_t row,
                        size_t group, float *out)
{
    const Avx512Tables &tab = tables();
    float sval = tab.lut->e8m0Value[t.scaleCode(row, group)];
    uint8_t meta = t.groupMetaByte(row, group);

    // The four subgroup scales, premultiplied exactly like the
    // scalar decode, then fanned out to their 8-lane spans.
    __m128 s4 = _mm_setr_ps(
        sval * tab.lut->sgEmMult[meta & 0x3u],
        sval * tab.lut->sgEmMult[(meta >> 2) & 0x3u],
        sval * tab.lut->sgEmMult[(meta >> 4) & 0x3u],
        sval * tab.lut->sgEmMult[(meta >> 6) & 0x3u]);
    __m512 s16 = _mm512_castps128_ps512(s4);
    __m512 scale_lo = _mm512_permutexvar_ps(tab.sgIdxLo, s16);
    __m512 scale_hi = _mm512_permutexvar_ps(tab.sgIdxHi, s16);

    __m128i chunk[2];
    splitNibbles(t.groupElementBytes(row, group), chunk);
    __m512 val_lo = _mm512_permutexvar_ps(
        _mm512_cvtepu8_epi32(chunk[0]), tab.fp4Value);
    __m512 val_hi = _mm512_permutexvar_ps(
        _mm512_cvtepu8_epi32(chunk[1]), tab.fp4Value);
    _mm512_storeu_ps(out, _mm512_mul_ps(val_lo, scale_lo));
    _mm512_storeu_ps(out + 16, _mm512_mul_ps(val_hi, scale_hi));
}

void
decodeWeightRowAvx512(const PackedM2xfpTensor &t, size_t row,
                      float *out)
{
    for (size_t g = 0; g < t.groupsPerRow(); ++g)
        decodeWeightGroupAvx512(t, row, g, out + g * groupSize);
}

void
decodeWeightSliverAvx512(const PackedM2xfpTensor &w, size_t jbase,
                         size_t jlim, size_t nr, double *sl)
{
    m2x_assert(nr == 16 && jlim >= 1 && jlim <= 16,
               "decodeWeightSliverAvx512: nr=%zu jlim=%zu", nr, jlim);
    const Avx512Tables &tab = tables();
    const size_t gpr = w.groupsPerRow();
    const size_t row_bytes = gpr * bytesPerGroup;
    m2x_assert(row_bytes * 15 <= INT_MAX,
               "decodeWeightSliverAvx512: %zu-byte rows overflow the "
               "gather offsets", row_bytes);
    const __mmask16 live =
        static_cast<__mmask16>((1u << jlim) - 1u);
    const __m512i row_off = _mm512_mullo_epi32(
        _mm512_set1_epi32(static_cast<int>(row_bytes)),
        _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
                          13, 14, 15));
    const __m512i nibble = _mm512_set1_epi32(0xf);
    const uint8_t *scales = w.scaleStream().data() + jbase * gpr;
    const uint8_t *metas = w.metadataStream().data() + jbase * gpr;
    const uint8_t *elems = w.groupElementBytes(jbase, 0);

    for (size_t g = 0; g < gpr; ++g) {
        // Per-lane shared scale and metadata byte; the pad lanes keep
        // scale 0 and element code 0, so they decode to +0.0.
        alignas(64) float sval[16] = {};
        alignas(64) uint32_t meta[16] = {};
        for (size_t l = 0; l < jlim; ++l) {
            sval[l] = tab.lut->e8m0Value[scales[l * gpr + g]];
            meta[l] = metas[l * gpr + g];
        }
        const __m512 sv = _mm512_load_ps(sval);
        const __m512i md = _mm512_load_si512(meta);
        double *out = sl + g * groupSize * 16;
        for (unsigned s = 0; s < nSubgroups; ++s) {
            // Same two multiplies in the same order as the scalar
            // decode: value * (sval * mult).
            __m512i mcode = _mm512_and_si512(
                _mm512_srlv_epi32(md, _mm512_set1_epi32(2 * s)),
                _mm512_set1_epi32(3));
            __m512 scale = _mm512_mul_ps(
                sv, _mm512_permutexvar_ps(mcode, tab.sgEmMult));
            // The subgroup's 8 codes are one 32-bit word per row:
            // element e sits at bits 4e.
            __m512i word = _mm512_mask_i32gather_epi32(
                _mm512_setzero_si512(), live, row_off,
                elems + g * bytesPerGroup + s * (subgroupSize / 2), 1);
            for (unsigned e = 0; e < subgroupSize; ++e) {
                __m512 v = _mm512_mul_ps(
                    _mm512_permutexvar_ps(
                        _mm512_and_si512(word, nibble), tab.fp4Value),
                    scale);
                word = _mm512_srli_epi32(word, 4);
                double *dst = out + (s * subgroupSize + e) * 16;
                _mm512_storeu_pd(dst, _mm512_cvtps_pd(
                                          _mm512_castps512_ps256(v)));
                _mm512_storeu_pd(
                    dst + 8,
                    _mm512_cvtps_pd(_mm256_castpd_ps(
                        _mm512_extractf64x4_pd(_mm512_castps_pd(v),
                                               1))));
            }
        }
    }
    // Codes past the true depth never reach the panel.
    std::fill(sl + w.cols() * 16, sl + gpr * groupSize * 16, 0.0);
}

namespace {

/**
 * The register tile for R rows: per depth step the sliver's two
 * 8-wide W vectors feed 2R independent FMA chains, one pass over the
 * sliver whatever R is. Every output is the same ascending-p FMA
 * chain for any R, so a row's bits never depend on how many rows
 * share its tile.
 */
template <size_t R>
void
tileAvx512(const double *a, size_t a_stride, const double *ws,
           size_t p0, size_t p1, double *acc, size_t acc_stride)
{
    __m512d c_lo[R], c_hi[R];
#pragma GCC unroll 8
    for (size_t ii = 0; ii < R; ++ii) {
        c_lo[ii] = _mm512_loadu_pd(acc + ii * acc_stride);
        c_hi[ii] = _mm512_loadu_pd(acc + ii * acc_stride + 8);
    }
    for (size_t p = p0; p < p1; ++p) {
        const double *wp = ws + p * 16;
        __m512d wl = _mm512_loadu_pd(wp);
        __m512d wh = _mm512_loadu_pd(wp + 8);
#pragma GCC unroll 8
        for (size_t ii = 0; ii < R; ++ii) {
            __m512d av = _mm512_set1_pd(a[ii * a_stride + p]);
            c_lo[ii] = _mm512_fmadd_pd(av, wl, c_lo[ii]);
            c_hi[ii] = _mm512_fmadd_pd(av, wh, c_hi[ii]);
        }
    }
#pragma GCC unroll 8
    for (size_t ii = 0; ii < R; ++ii) {
        _mm512_storeu_pd(acc + ii * acc_stride, c_lo[ii]);
        _mm512_storeu_pd(acc + ii * acc_stride + 8, c_hi[ii]);
    }
}

} // anonymous namespace

void
microKernelAvx512(const double *a, size_t a_stride, const double *ws,
                  size_t nr, size_t p0, size_t p1, size_t mr_cur,
                  double *acc, size_t acc_stride)
{
    m2x_assert(nr == 16, "microKernelAvx512 expects nr=16, got %zu",
               nr);
    using TileFn = void (*)(const double *, size_t, const double *,
                            size_t, size_t, double *, size_t);
    static constexpr TileFn tiles[8] = {
        &tileAvx512<1>, &tileAvx512<2>, &tileAvx512<3>,
        &tileAvx512<4>, &tileAvx512<5>, &tileAvx512<6>,
        &tileAvx512<7>, &tileAvx512<8>};
    m2x_assert(mr_cur >= 1 && mr_cur <= 8,
               "microKernelAvx512: mr_cur=%zu", mr_cur);
    tiles[mr_cur - 1](a, a_stride, ws, p0, p1, acc, acc_stride);
}

} // namespace detail
} // namespace runtime
} // namespace m2x

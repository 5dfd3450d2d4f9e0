/**
 * @file
 * AVX-512 (F+BW) tier of the packed GEMM: full-table vector LUT
 * decode of the M2XFP streams — the tier's only row decoders, shared
 * by the GEMM and the KV attend — one Sg-EM sliver decode feeding
 * both GEMM paths, and R x 16 register tiles over 8-wide double
 * accumulators (R <= 8).
 *
 * Decode: the 16-entry FP4 E2M1 value table fits one zmm register,
 * so a single vpermps (_mm512_permutexvar_ps) decodes 16 codes at
 * once — no sign-split needed, unlike the AVX2 tier's 8-entry
 * magnitude permute. The four Sg-EM subgroup scales of a group are
 * staged in one xmm and expanded to per-lane scale vectors with a
 * second permutexvar, keeping the multiply order identical to the
 * scalar decode (value * (sval * mult)). The Elem-EM rows decoder
 * splits a 32-element group into two 16-lane halves, each decoded
 * with the same table permute; the top-1 fix-up is a branchless
 * in-register segmented max over the same (mag << 3) | (7 - lane)
 * keys as the AVX2 tier plus a 64-entry two-table permute
 * (vpermt2ps) of the metadata-adjusted values, blended into the
 * winner lanes before the shared scale multiply. Two groups are
 * interleaved per iteration to cover the shuffle-port latency. Every
 * lane's value is the exact same table entry times the exact same
 * scale as the generic CodecTraits kernels, so the decoded floats
 * are bit-identical to them (tests/runtime/simd_test.cc,
 * tests/runtime/codec_traits_test.cc).
 *
 * Weights skip the row layout: the sliver decode gathers one
 * subgroup's 32-bit element word from each of 16 rows with one
 * masked vpgatherdd, then per depth position shifts out the nibble,
 * looks it up with the same vpermps, applies the per-lane subgroup
 * scale and widens to two 8-double vectors. The panel path stores
 * them as one k-major sliver row (bit-identical to row decode plus
 * transpose, tests/runtime/packed_gemm_test.cc); at M <= 8 the
 * decode-fused tile FMAs them straight into the row accumulators,
 * and no panel exists.
 *
 * Accumulate: per depth step the two 8-wide W vectors and each row's
 * A broadcast feed 2R independent FMA chains, one pass over the
 * sliver whatever R is. Each output is one ascending-p chain over the
 * padded depth in either path, so a row's bits never depend on the
 * batch; the order differs from the scalar oracle, so parity with it
 * is tolerance-checked, never assumed bit-exact.
 *
 * This translation unit is compiled with -mavx2 -mfma -mavx512f
 * -mavx512bw and must only be entered through the runtime dispatch
 * (simdIsaAvailable guards).
 */

#include <immintrin.h>

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
 * The E8M0 codecs' traits tables plus their vector-register forms
 * (every stream this tier decodes is an E8M0 g32/sg8 stream, and
 * those codecs share one set of tables).
 */
struct Avx512Tables
{
    const CodecTraits *tr;
    __m512 fp4Value;     //!< the full 16-entry FP4 table
    __m512 subMult;      //!< lanes 0..3: the subgroup multipliers
    __m512i sgIdxLo;     //!< lane -> subgroup index, elements 0..15
    __m512i sgIdxHi;     //!< same for elements 16..31
    /** top1Value flattened to [code*4 + meta], 64 entries. */
    __m512 em0, em1, em2, em3;
};

const Avx512Tables &
tables()
{
    static const Avx512Tables t = [] {
        const CodecTraits &tr = CodecTraits::get(PackedCodec::ElemEm);
        alignas(64) float em[64];
        for (unsigned c = 0; c < 16; ++c)
            for (unsigned m = 0; m < 4; ++m)
                em[c * 4 + m] = tr.top1Value[c][m];
        return Avx512Tables{
            &tr, _mm512_loadu_ps(tr.fp4Value),
            _mm512_castps128_ps512(_mm_loadu_ps(tr.subMult)),
            _mm512_set_epi32(1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0,
                             0, 0, 0),
            _mm512_set_epi32(3, 3, 3, 3, 3, 3, 3, 3, 2, 2, 2, 2, 2,
                             2, 2, 2),
            _mm512_loadu_ps(em), _mm512_loadu_ps(em + 16),
            _mm512_loadu_ps(em + 32), _mm512_loadu_ps(em + 48)};
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

/**
 * Decode 16 element codes (two 8-lane subgroups) to their unscaled
 * Elem-EM values: FP4 table permute everywhere, the metadata-adjusted
 * FP6 value blended into each subgroup's top-1 lane. @p shifts
 * selects the two subgroups' metadata bit positions within @p mb.
 */
inline __m512
decodeElemEmHalf(const Avx512Tables &t, __m512i code, __m512i mb,
                 __m512i shifts)
{
    const __m512i lane_rev = _mm512_setr_epi32(
        7, 6, 5, 4, 3, 2, 1, 0, 7, 6, 5, 4, 3, 2, 1, 0);
    const __m512i swap4 = _mm512_setr_epi32(
        4, 5, 6, 7, 0, 1, 2, 3, 12, 13, 14, 15, 8, 9, 10, 11);
    __m512 fp4 = _mm512_permutexvar_ps(code, t.fp4Value);
    // Subgroup argmax of (code & 7), ties to the lowest lane, as a
    // segmented max over keys (mag << 3) | (7 - lane), reduced with
    // three in-register swap+max steps.
    __m512i mag = _mm512_and_si512(code, _mm512_set1_epi32(7));
    __m512i key = _mm512_or_si512(_mm512_slli_epi32(mag, 3),
                                  lane_rev);
    __m512i mx = _mm512_max_epi32(
        key, _mm512_shuffle_epi32(key, (_MM_PERM_ENUM)0xB1));
    mx = _mm512_max_epi32(
        mx, _mm512_shuffle_epi32(mx, (_MM_PERM_ENUM)0x4E));
    mx = _mm512_max_epi32(mx, _mm512_permutexvar_epi32(swap4, mx));
    __mmask16 win = _mm512_cmpeq_epi32_mask(key, mx);
    // top1Value[code][meta] for every lane: 6-bit index into the
    // 64-entry table, two 32-entry vpermt2ps halves blended on
    // index bit 5.
    __m512i mc = _mm512_and_si512(_mm512_srlv_epi32(mb, shifts),
                                  _mm512_set1_epi32(3));
    __m512i idx = _mm512_or_si512(_mm512_slli_epi32(code, 2), mc);
    __m512 em_lo = _mm512_permutex2var_ps(t.em0, idx, t.em1);
    __m512 em_hi = _mm512_permutex2var_ps(t.em2, idx, t.em3);
    __mmask16 b5 =
        _mm512_test_epi32_mask(idx, _mm512_set1_epi32(32));
    __m512 em = _mm512_mask_blend_ps(b5, em_lo, em_hi);
    return _mm512_mask_blend_ps(win, fp4, em);
}

} // anonymous namespace

void
decodeWeightGroupAvx512(const PackedM2xfpTensor &t, size_t row,
                        size_t group, float *out)
{
    const Avx512Tables &tab = tables();
    float sval = tab.tr->scaleValue[t.scaleCode(row, group)];
    uint8_t meta = t.groupMetaByte(row, group);

    // The four subgroup scales, premultiplied exactly like the
    // scalar decode, then fanned out to their 8-lane spans.
    __m128 s4 = _mm_setr_ps(
        sval * tab.tr->subMult[meta & 0x3u],
        sval * tab.tr->subMult[(meta >> 2) & 0x3u],
        sval * tab.tr->subMult[(meta >> 4) & 0x3u],
        sval * tab.tr->subMult[(meta >> 6) & 0x3u]);
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
decodeWeightRowsAvx512(const PackedM2xfpTensor &t, size_t row0,
                       size_t n_rows, size_t stride, float *out)
{
    for (size_t r = 0; r < n_rows; ++r)
        for (size_t g = 0; g < t.groupsPerRow(); ++g)
            decodeWeightGroupAvx512(t, row0 + r, g,
                                    out + r * stride + g * groupSize);
}

void
decodeActivationRowsAvx512(const PackedM2xfpTensor &t, size_t row0,
                           size_t n_rows, size_t stride, float *out)
{
    const Avx512Tables &tab = tables();
    // Metadata bit positions of subgroups (0,1) and (2,3).
    const __m512i shifts_a = _mm512_setr_epi32(
        0, 0, 0, 0, 0, 0, 0, 0, 2, 2, 2, 2, 2, 2, 2, 2);
    const __m512i shifts_b = _mm512_setr_epi32(
        4, 4, 4, 4, 4, 4, 4, 4, 6, 6, 6, 6, 6, 6, 6, 6);
    size_t gpr = t.groupsPerRow();
    for (size_t r = 0; r < n_rows; ++r) {
        float *o = out + r * stride;
        size_t row = row0 + r;
        const uint8_t *bytes = t.groupElementBytes(row, 0);
        size_t g = 0;
        // Two groups per iteration: four independent 16-lane decode
        // chains keep the shuffle ports busy across the table
        // permutes' latency.
        for (; g + 2 <= gpr; g += 2) {
            __m512 sc0 =
                _mm512_set1_ps(tab.tr->scaleValue[t.scaleCode(row, g)]);
            __m512 sc1 = _mm512_set1_ps(
                tab.tr->scaleValue[t.scaleCode(row, g + 1)]);
            __m512i mb0 = _mm512_set1_epi32(t.groupMetaByte(row, g));
            __m512i mb1 =
                _mm512_set1_epi32(t.groupMetaByte(row, g + 1));
            __m128i c0[2], c1[2];
            splitNibbles(bytes + g * bytesPerGroup, c0);
            splitNibbles(bytes + (g + 1) * bytesPerGroup, c1);
            __m512 v0 = decodeElemEmHalf(
                tab, _mm512_cvtepu8_epi32(c0[0]), mb0, shifts_a);
            __m512 v1 = decodeElemEmHalf(
                tab, _mm512_cvtepu8_epi32(c0[1]), mb0, shifts_b);
            __m512 v2 = decodeElemEmHalf(
                tab, _mm512_cvtepu8_epi32(c1[0]), mb1, shifts_a);
            __m512 v3 = decodeElemEmHalf(
                tab, _mm512_cvtepu8_epi32(c1[1]), mb1, shifts_b);
            _mm512_storeu_ps(o + g * 32, _mm512_mul_ps(v0, sc0));
            _mm512_storeu_ps(o + g * 32 + 16, _mm512_mul_ps(v1, sc0));
            _mm512_storeu_ps(o + g * 32 + 32, _mm512_mul_ps(v2, sc1));
            _mm512_storeu_ps(o + g * 32 + 48, _mm512_mul_ps(v3, sc1));
        }
        for (; g < gpr; ++g) {
            __m512 sc =
                _mm512_set1_ps(tab.tr->scaleValue[t.scaleCode(row, g)]);
            __m512i mb = _mm512_set1_epi32(t.groupMetaByte(row, g));
            __m128i c[2];
            splitNibbles(bytes + g * bytesPerGroup, c);
            __m512 v0 = decodeElemEmHalf(
                tab, _mm512_cvtepu8_epi32(c[0]), mb, shifts_a);
            __m512 v1 = decodeElemEmHalf(
                tab, _mm512_cvtepu8_epi32(c[1]), mb, shifts_b);
            _mm512_storeu_ps(o + g * 32, _mm512_mul_ps(v0, sc));
            _mm512_storeu_ps(o + g * 32 + 16, _mm512_mul_ps(v1, sc));
        }
    }
}

namespace {

/**
 * The tier's one Sg-EM sliver decode: sink(p, lo, hi) for every depth
 * position p of the weight rows [jbase, jbase + jlim) in ascending
 * order, lanes 0..7 and 8..15 widened to double; the pad lanes and
 * the depth pad (p >= w.cols()) are +0.0.
 */
template <class Sink>
inline __attribute__((always_inline)) void
forEachSliverDepthAvx512(const PackedM2xfpTensor &w, size_t jbase,
                         size_t jlim, Sink &&sink)
{
    m2x_assert(jlim >= 1 && jlim <= 16,
               "Avx512 sliver decode: jlim=%zu", jlim);
    const Avx512Tables &tab = tables();
    const size_t gpr = w.groupsPerRow();
    const size_t row_bytes = gpr * bytesPerGroup;
    m2x_assert(row_bytes * 15 <= INT_MAX,
               "Avx512 sliver decode: %zu-byte rows overflow the "
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
            sval[l] = tab.tr->scaleValue[scales[l * gpr + g]];
            meta[l] = metas[l * gpr + g];
        }
        const __m512 sv = _mm512_load_ps(sval);
        const __m512i md = _mm512_load_si512(meta);
        for (unsigned s = 0; s < nSubgroups; ++s) {
            // Same two multiplies in the same order as the scalar
            // decode: value * (sval * mult).
            __m512i mcode = _mm512_and_si512(
                _mm512_srlv_epi32(md, _mm512_set1_epi32(2 * s)),
                _mm512_set1_epi32(3));
            __m512 scale = _mm512_mul_ps(
                sv, _mm512_permutexvar_ps(mcode, tab.subMult));
            // The subgroup's 8 codes are one 32-bit word per row:
            // element e sits at bits 4e.
            __m512i word = _mm512_mask_i32gather_epi32(
                _mm512_setzero_si512(), live, row_off,
                elems + g * bytesPerGroup + s * (subgroupSize / 2), 1);
            size_t p = g * groupSize + s * subgroupSize;
            for (unsigned e = 0; e < subgroupSize; ++e, ++p) {
                __m512 v = _mm512_maskz_mul_ps(
                    p < w.cols() ? 0xffff : 0,
                    _mm512_permutexvar_ps(
                        _mm512_and_si512(word, nibble), tab.fp4Value),
                    scale);
                word = _mm512_srli_epi32(word, 4);
                sink(p, _mm512_cvtps_pd(_mm512_castps512_ps256(v)),
                     _mm512_cvtps_pd(_mm256_castpd_ps(
                         _mm512_extractf64x4_pd(_mm512_castps_pd(v),
                                                1))));
            }
        }
    }
}

/**
 * The R x 16 register tile of both GEMM paths: R rows of
 * accumulators from +0.0 (@p zero) or @p acc, 2R FMA chains over
 * the W vectors @p feed hands it in ascending p, stored to @p acc.
 * Each output is the same chain for any R and either feed, so a
 * row's bits depend on neither its batch nor the path.
 */
template <size_t R, class Feed>
inline __attribute__((always_inline)) void
tileAvx512(const double *a, size_t a_stride, bool zero, double *acc,
           size_t acc_stride, Feed &&feed)
{
    __m512d c_lo[R], c_hi[R];
#pragma GCC unroll 8
    for (size_t ii = 0; ii < R; ++ii) {
        c_lo[ii] = zero ? _mm512_setzero_pd()
                        : _mm512_loadu_pd(acc + ii * acc_stride);
        c_hi[ii] = zero ? _mm512_setzero_pd()
                        : _mm512_loadu_pd(acc + ii * acc_stride + 8);
    }
    feed([&](size_t p, __m512d wl, __m512d wh) {
#pragma GCC unroll 8
        for (size_t ii = 0; ii < R; ++ii) {
            __m512d av = _mm512_set1_pd(a[ii * a_stride + p]);
            c_lo[ii] = _mm512_fmadd_pd(av, wl, c_lo[ii]);
            c_hi[ii] = _mm512_fmadd_pd(av, wh, c_hi[ii]);
        }
    });
#pragma GCC unroll 8
    for (size_t ii = 0; ii < R; ++ii) {
        _mm512_storeu_pd(acc + ii * acc_stride, c_lo[ii]);
        _mm512_storeu_pd(acc + ii * acc_stride + 8, c_hi[ii]);
    }
}

} // anonymous namespace

void
decodeWeightSliverAvx512(const PackedM2xfpTensor &w, size_t jbase,
                         size_t jlim, size_t nr, double *sl)
{
    m2x_assert(nr == 16, "decodeWeightSliverAvx512: nr=%zu", nr);
    forEachSliverDepthAvx512(
        w, jbase, jlim, [sl](size_t p, __m512d lo, __m512d hi) {
            _mm512_storeu_pd(sl + p * 16, lo);
            _mm512_storeu_pd(sl + p * 16 + 8, hi);
        });
}

void
sliverTileKernelAvx512(const PackedM2xfpTensor &w, size_t jbase,
                       size_t jlim, const double *a, size_t a_stride,
                       size_t rows, double *c)
{
    withTileRows<8>(rows, [&](auto r) {
        tileAvx512<decltype(r)::value>(
            a, a_stride, true, c, 16, [&](auto &&fma) {
                forEachSliverDepthAvx512(w, jbase, jlim, fma);
            });
    });
}

void
microKernelAvx512(const double *a, size_t a_stride, const double *ws,
                  size_t nr, size_t p0, size_t p1, size_t mr_cur,
                  double *acc, size_t acc_stride)
{
    m2x_assert(nr == 16, "microKernelAvx512 expects nr=16, got %zu",
               nr);
    withTileRows<8>(mr_cur, [&](auto r) {
        tileAvx512<decltype(r)::value>(
            a, a_stride, false, acc, acc_stride, [&](auto &&fma) {
                for (size_t p = p0; p < p1; ++p)
                    fma(p, _mm512_loadu_pd(ws + p * 16),
                        _mm512_loadu_pd(ws + p * 16 + 8));
            });
    });
}

} // namespace detail
} // namespace runtime
} // namespace m2x

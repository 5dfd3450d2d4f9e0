/**
 * @file
 * AVX-512 (F) tier of the KV-cache attention primitives: 8-wide
 * double FMA chains for the per-head score dots and value
 * accumulations, and a 16-wide polynomial float exp for the
 * online-softmax exponential weights.
 *
 * Precision contract: dots and accumulations run entirely in
 * double, exactly as the AVX2 tier — wider lanes only reassociate
 * further, so results still differ from the scalar oracle only at
 * double ulp level. expWeights evaluates the same Cephes expf
 * polynomial as the AVX2 tier (~2 float ulp) before widening back
 * to double — inside the packed 1e-5 contract, never used by the
 * bit-exact fp32 path.
 *
 * The page decode (decodeRowsAvx512) is this tier's own scheme
 * rather than a loop over the shared AVX2 row decode: one 32-element
 * group becomes two 16-lane halves, each decoded with a single
 * 16-entry FP4 table permute (vpermps), and the Elem-EM top-1
 * fix-up — a horizontal argmax per 8-lane subgroup in the AVX2
 * scheme — becomes a branchless in-register segmented max over key
 * vectors plus a 64-entry two-table permute (vpermt2ps) of the
 * metadata-adjusted values, blended into the winner lanes before
 * the shared scale multiply. Two groups are interleaved per
 * iteration to cover the shuffle-port latency. Every lane's value
 * is the exact same table entry times the exact same scale as the
 * scalar LUT decode, so the result stays bit-identical (asserted by
 * the flash kernel parity tests).
 *
 * This translation unit is compiled with -mavx2 -mfma -mavx512f
 * -mavx512bw and must only be entered through the runtime dispatch
 * (simdIsaAvailable guards).
 */

#include <cmath>
#include <immintrin.h>
#include <limits>

#include "runtime/decode_lut.hh"
#include "runtime/kv_attend_kernels.hh"

namespace m2x {
namespace runtime {
namespace detail {

namespace {

/** Widening load: 8 floats -> 8 doubles. */
inline __m512d
loadPs8(const float *p)
{
    return _mm512_cvtps_pd(_mm256_loadu_ps(p));
}

/** Decode tables staged into 16-lane register form. */
struct Avx512Tables
{
    const DecodeTables *lut;
    __m512 fp4;  //!< fp4Value[0..15]
    /** elemEmValue flattened to [code*4 + meta], 64 entries. */
    __m512 em0, em1, em2, em3;
};

const Avx512Tables &
tables512()
{
    static const Avx512Tables t = [] {
        const DecodeTables &lut = DecodeTables::get();
        alignas(64) float em[64];
        for (unsigned c = 0; c < 16; ++c)
            for (unsigned m = 0; m < 4; ++m)
                em[c * 4 + m] = lut.elemEmValue[c][m];
        return Avx512Tables{&lut, _mm512_loadu_ps(lut.fp4Value),
                            _mm512_loadu_ps(em),
                            _mm512_loadu_ps(em + 16),
                            _mm512_loadu_ps(em + 32),
                            _mm512_loadu_ps(em + 48)};
    }();
    return t;
}

/**
 * Decode 16 element codes (two 8-lane subgroups) to their unscaled
 * values: FP4 table permute everywhere, the Elem-EM-adjusted FP6
 * value blended into each subgroup's top-1 lane. @p shifts selects
 * the two subgroups' metadata bit positions within @p mb.
 */
inline __m512
decodeHalf512(const Avx512Tables &t, __m512i code, __m512i mb,
              __m512i shifts)
{
    const __m512i lane_rev = _mm512_setr_epi32(
        7, 6, 5, 4, 3, 2, 1, 0, 7, 6, 5, 4, 3, 2, 1, 0);
    const __m512i swap4 = _mm512_setr_epi32(
        4, 5, 6, 7, 0, 1, 2, 3, 12, 13, 14, 15, 8, 9, 10, 11);
    __m512 fp4 = _mm512_permutexvar_ps(code, t.fp4);
    // Subgroup argmax of (code & 7), ties to the lowest lane, as a
    // segmented max over keys (mag << 3) | (7 - lane) — the same
    // keys as the AVX2 scheme, reduced with three in-register
    // swap+max steps instead of a horizontal extract.
    __m512i mag = _mm512_and_si512(code, _mm512_set1_epi32(7));
    __m512i key = _mm512_or_si512(_mm512_slli_epi32(mag, 3),
                                  lane_rev);
    __m512i mx = _mm512_max_epi32(
        key, _mm512_shuffle_epi32(key, (_MM_PERM_ENUM)0xB1));
    mx = _mm512_max_epi32(
        mx, _mm512_shuffle_epi32(mx, (_MM_PERM_ENUM)0x4E));
    mx = _mm512_max_epi32(mx, _mm512_permutexvar_epi32(swap4, mx));
    __mmask16 win = _mm512_cmpeq_epi32_mask(key, mx);
    // elemEmValue[code][meta] for every lane: 6-bit index into the
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

/** 16-wide float exp — the same Cephes expf scheme as the AVX2
 * tier, on 512-bit vectors. */
inline __m512
expPs16(__m512 x)
{
    const __m512 hi = _mm512_set1_ps(88.3762626647949f);
    const __m512 lo = _mm512_set1_ps(-88.3762626647949f);
    const __m512 log2e = _mm512_set1_ps(1.44269504088896341f);
    const __m512 c1 = _mm512_set1_ps(0.693359375f);
    const __m512 c2 = _mm512_set1_ps(-2.12194440e-4f);
    const __m512 one = _mm512_set1_ps(1.0f);

    x = _mm512_min_ps(x, hi);
    x = _mm512_max_ps(x, lo);

    __m512 fx = _mm512_fmadd_ps(x, log2e, _mm512_set1_ps(0.5f));
    fx = _mm512_roundscale_ps(
        fx, _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
    x = _mm512_fnmadd_ps(fx, c1, x);
    x = _mm512_fnmadd_ps(fx, c2, x);

    __m512 z = _mm512_mul_ps(x, x);
    __m512 y = _mm512_set1_ps(1.9875691500e-4f);
    y = _mm512_fmadd_ps(y, x, _mm512_set1_ps(1.3981999507e-3f));
    y = _mm512_fmadd_ps(y, x, _mm512_set1_ps(8.3334519073e-3f));
    y = _mm512_fmadd_ps(y, x, _mm512_set1_ps(4.1665795894e-2f));
    y = _mm512_fmadd_ps(y, x, _mm512_set1_ps(1.6666665459e-1f));
    y = _mm512_fmadd_ps(y, x, _mm512_set1_ps(5.0000001201e-1f));
    y = _mm512_fmadd_ps(y, z, _mm512_add_ps(x, one));

    __m512i n = _mm512_cvtps_epi32(fx);
    n = _mm512_add_epi32(n, _mm512_set1_epi32(127));
    n = _mm512_slli_epi32(n, 23);
    return _mm512_mul_ps(y, _mm512_castsi512_ps(n));
}

} // anonymous namespace

void
decodeRowsAvx512(const PackedM2xfpTensor &t, size_t row0,
                 size_t n_rows, size_t stride, float *out)
{
    const Avx512Tables &tab = tables512();
    // Metadata bit positions of subgroups (0,1) and (2,3).
    const __m512i shifts_a = _mm512_setr_epi32(
        0, 0, 0, 0, 0, 0, 0, 0, 2, 2, 2, 2, 2, 2, 2, 2);
    const __m512i shifts_b = _mm512_setr_epi32(
        4, 4, 4, 4, 4, 4, 4, 4, 6, 6, 6, 6, 6, 6, 6, 6);
    const __m128i nib = _mm_set1_epi8(0x0f);
    size_t gpr = t.groupsPerRow();
    for (size_t r = 0; r < n_rows; ++r) {
        float *o = out + r * stride;
        const uint8_t *bytes = t.groupElementBytes(row0 + r, 0);
        size_t g = 0;
        // Two groups per iteration: four independent 16-lane decode
        // chains keep the shuffle ports busy across the table
        // permutes' latency.
        for (; g + 2 <= gpr; g += 2) {
            float s0 =
                tab.lut->e8m0Value[t.scaleCode(row0 + r, g)];
            float s1 =
                tab.lut->e8m0Value[t.scaleCode(row0 + r, g + 1)];
            __m512i mb0 =
                _mm512_set1_epi32(t.groupMetaByte(row0 + r, g));
            __m512i mb1 =
                _mm512_set1_epi32(t.groupMetaByte(row0 + r, g + 1));
            __m128i raw0 = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(bytes + g * 16));
            __m128i raw1 = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(bytes + g * 16 +
                                                  16));
            __m128i lo0 = _mm_and_si128(raw0, nib);
            __m128i hi0 =
                _mm_and_si128(_mm_srli_epi16(raw0, 4), nib);
            __m128i lo1 = _mm_and_si128(raw1, nib);
            __m128i hi1 =
                _mm_and_si128(_mm_srli_epi16(raw1, 4), nib);
            __m512 v0 = decodeHalf512(
                tab,
                _mm512_cvtepu8_epi32(_mm_unpacklo_epi8(lo0, hi0)),
                mb0, shifts_a);
            __m512 v1 = decodeHalf512(
                tab,
                _mm512_cvtepu8_epi32(_mm_unpackhi_epi8(lo0, hi0)),
                mb0, shifts_b);
            __m512 v2 = decodeHalf512(
                tab,
                _mm512_cvtepu8_epi32(_mm_unpacklo_epi8(lo1, hi1)),
                mb1, shifts_a);
            __m512 v3 = decodeHalf512(
                tab,
                _mm512_cvtepu8_epi32(_mm_unpackhi_epi8(lo1, hi1)),
                mb1, shifts_b);
            __m512 sc0 = _mm512_set1_ps(s0);
            __m512 sc1 = _mm512_set1_ps(s1);
            _mm512_storeu_ps(o + g * 32, _mm512_mul_ps(v0, sc0));
            _mm512_storeu_ps(o + g * 32 + 16,
                             _mm512_mul_ps(v1, sc0));
            _mm512_storeu_ps(o + g * 32 + 32,
                             _mm512_mul_ps(v2, sc1));
            _mm512_storeu_ps(o + g * 32 + 48,
                             _mm512_mul_ps(v3, sc1));
        }
        for (; g < gpr; ++g) {
            float sval =
                tab.lut->e8m0Value[t.scaleCode(row0 + r, g)];
            __m512i mb =
                _mm512_set1_epi32(t.groupMetaByte(row0 + r, g));
            __m128i raw = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(bytes + g * 16));
            __m128i lo = _mm_and_si128(raw, nib);
            __m128i hi = _mm_and_si128(_mm_srli_epi16(raw, 4), nib);
            __m512 v0 = decodeHalf512(
                tab, _mm512_cvtepu8_epi32(_mm_unpacklo_epi8(lo, hi)),
                mb, shifts_a);
            __m512 v1 = decodeHalf512(
                tab, _mm512_cvtepu8_epi32(_mm_unpackhi_epi8(lo, hi)),
                mb, shifts_b);
            __m512 sc = _mm512_set1_ps(sval);
            _mm512_storeu_ps(o + g * 32, _mm512_mul_ps(v0, sc));
            _mm512_storeu_ps(o + g * 32 + 16,
                             _mm512_mul_ps(v1, sc));
        }
    }
}

void
scorePageAvx512(const float *q, const float *rows, size_t stride,
                size_t n_rows, size_t hd, unsigned n_heads,
                unsigned group, double inv_sqrt, double *scores,
                size_t s_stride, double *smax)
{
    // The query is reused by every row of the page, so widen each
    // head's slice to double once (cvtps_pd is exact, so the FMA
    // inputs — and therefore every score bit — are unchanged) and
    // turn the per-row q conversions into plain double loads. The
    // stack slab bounds hd; headDim beyond it would be far outside
    // any transformer shape, and the row loops below only ever read
    // lanes < hd.
    constexpr size_t kMaxHd = 1024;
    alignas(64) double qd[kMaxHd];
    for (unsigned h = 0; h < n_heads; ++h) {
        const float *a = q + h * hd;
        const float *base = rows + (h / group) * hd;
        double *sh = scores + h * s_stride;
        double mx = -std::numeric_limits<double>::infinity();
        size_t wide = hd <= kMaxHd ? hd & ~size_t{7} : 0;
        for (size_t c = 0; c < wide; c += 8)
            _mm512_storeu_pd(qd + c, loadPs8(a + c));
        size_t r = 0;
        // Two rows per iteration: four independent FMA chains hide
        // the FMA latency and overlap the horizontal reductions.
        // Each row keeps the same two-chain structure as the
        // single-row tail below, so a score does not depend on
        // which loop computed it.
        for (; r + 2 <= n_rows; r += 2) {
            const float *b0 = base + r * stride;
            const float *b1 = b0 + stride;
            __m512d s00 = _mm512_setzero_pd();
            __m512d s01 = _mm512_setzero_pd();
            __m512d s10 = _mm512_setzero_pd();
            __m512d s11 = _mm512_setzero_pd();
            size_t c = 0;
            for (; c + 16 <= wide; c += 16) {
                __m512d qa = _mm512_load_pd(qd + c);
                __m512d qb = _mm512_load_pd(qd + c + 8);
                s00 = _mm512_fmadd_pd(qa, loadPs8(b0 + c), s00);
                s01 = _mm512_fmadd_pd(qb, loadPs8(b0 + c + 8), s01);
                s10 = _mm512_fmadd_pd(qa, loadPs8(b1 + c), s10);
                s11 = _mm512_fmadd_pd(qb, loadPs8(b1 + c + 8), s11);
            }
            for (; c + 16 <= hd; c += 16) {
                __m512d qa = loadPs8(a + c);
                __m512d qb = loadPs8(a + c + 8);
                s00 = _mm512_fmadd_pd(qa, loadPs8(b0 + c), s00);
                s01 = _mm512_fmadd_pd(qb, loadPs8(b0 + c + 8), s01);
                s10 = _mm512_fmadd_pd(qa, loadPs8(b1 + c), s10);
                s11 = _mm512_fmadd_pd(qb, loadPs8(b1 + c + 8), s11);
            }
            if (c + 8 <= hd) {
                __m512d qa = c + 8 <= wide ? _mm512_load_pd(qd + c)
                                           : loadPs8(a + c);
                s00 = _mm512_fmadd_pd(qa, loadPs8(b0 + c), s00);
                s10 = _mm512_fmadd_pd(qa, loadPs8(b1 + c), s10);
                c += 8;
            }
            double d0 =
                _mm512_reduce_add_pd(_mm512_add_pd(s00, s01));
            double d1 =
                _mm512_reduce_add_pd(_mm512_add_pd(s10, s11));
            for (; c < hd; ++c) {
                d0 += static_cast<double>(a[c]) * b0[c];
                d1 += static_cast<double>(a[c]) * b1[c];
            }
            double x0 = d0 * inv_sqrt;
            double x1 = d1 * inv_sqrt;
            sh[r] = x0;
            sh[r + 1] = x1;
            mx = std::max(mx, std::max(x0, x1));
        }
        for (; r < n_rows; ++r) {
            const float *b = base + r * stride;
            __m512d s0 = _mm512_setzero_pd();
            __m512d s1 = _mm512_setzero_pd();
            size_t c = 0;
            for (; c + 16 <= wide; c += 16) {
                s0 = _mm512_fmadd_pd(_mm512_load_pd(qd + c),
                                     loadPs8(b + c), s0);
                s1 = _mm512_fmadd_pd(_mm512_load_pd(qd + c + 8),
                                     loadPs8(b + c + 8), s1);
            }
            for (; c + 16 <= hd; c += 16) {
                s0 = _mm512_fmadd_pd(loadPs8(a + c), loadPs8(b + c),
                                     s0);
                s1 = _mm512_fmadd_pd(loadPs8(a + c + 8),
                                     loadPs8(b + c + 8), s1);
            }
            if (c + 8 <= hd) {
                __m512d qa = c + 8 <= wide ? _mm512_load_pd(qd + c)
                                           : loadPs8(a + c);
                s0 = _mm512_fmadd_pd(qa, loadPs8(b + c), s0);
                c += 8;
            }
            double dot =
                _mm512_reduce_add_pd(_mm512_add_pd(s0, s1));
            for (; c < hd; ++c)
                dot += static_cast<double>(a[c]) * b[c];
            double s = dot * inv_sqrt;
            sh[r] = s;
            mx = std::max(mx, s);
        }
        smax[h] = mx;
    }
}

namespace {

/**
 * One channel block of the page accumulation: NR 8-lane accumulator
 * registers (NR*8 channels) walk the page's rows once. A single
 * chain per register means the row walk would be FMA-latency-bound;
 * NR independent chains push it to FMA throughput instead. Per
 * channel lane the adds stay in ascending-row order.
 */
template <int NR>
inline void
accumBlock512(const double *wh, const float *base, size_t stride,
              size_t n_rows, double *ar)
{
    __m512d a[NR];
    for (int i = 0; i < NR; ++i)
        a[i] = _mm512_loadu_pd(ar + 8 * i);
    for (size_t r = 0; r < n_rows; ++r) {
        __m512d pv = _mm512_set1_pd(wh[r]);
        const float *b = base + r * stride;
        for (int i = 0; i < NR; ++i)
            a[i] = _mm512_fmadd_pd(pv, loadPs8(b + 8 * i), a[i]);
    }
    for (int i = 0; i < NR; ++i)
        _mm512_storeu_pd(ar + 8 * i, a[i]);
}

} // anonymous namespace

void
accumPageAvx512(const double *w, size_t w_stride, const float *rows,
                size_t stride, size_t n_rows, size_t hd,
                unsigned n_heads, unsigned group, double *acc)
{
    for (unsigned h = 0; h < n_heads; ++h) {
        const double *wh = w + h * w_stride;
        const float *base = rows + (h / group) * hd;
        double *ar = acc + h * hd;
        size_t c = 0;
        // Channel-outer, row-inner with the accumulator held in up
        // to 8 registers (64 channels) across the whole page; a
        // typical head (hd 48) is one accumBlock512<6> call.
        for (; c + 64 <= hd; c += 64)
            accumBlock512<8>(wh, base + c, stride, n_rows, ar + c);
        switch ((hd - c) / 8) {
        case 7:
            accumBlock512<7>(wh, base + c, stride, n_rows, ar + c);
            c += 56;
            break;
        case 6:
            accumBlock512<6>(wh, base + c, stride, n_rows, ar + c);
            c += 48;
            break;
        case 5:
            accumBlock512<5>(wh, base + c, stride, n_rows, ar + c);
            c += 40;
            break;
        case 4:
            accumBlock512<4>(wh, base + c, stride, n_rows, ar + c);
            c += 32;
            break;
        case 3:
            accumBlock512<3>(wh, base + c, stride, n_rows, ar + c);
            c += 24;
            break;
        case 2:
            accumBlock512<2>(wh, base + c, stride, n_rows, ar + c);
            c += 16;
            break;
        case 1:
            accumBlock512<1>(wh, base + c, stride, n_rows, ar + c);
            c += 8;
            break;
        default:
            break;
        }
        for (; c < hd; ++c) {
            double s = ar[c];
            for (size_t r = 0; r < n_rows; ++r)
                s += wh[r] *
                     static_cast<double>(base[r * stride + c]);
            ar[c] = s;
        }
    }
}

void
expWeightsAvx512(const double *s, double m, size_t n, double *p)
{
    __m512d md = _mm512_set1_pd(m);
    size_t r = 0;
    for (; r + 16 <= n; r += 16) {
        // Two 8-double differences narrowed to one 16-float vector,
        // one polynomial exp, widened back to two 8-double stores.
        __m256 x0 = _mm512_cvtpd_ps(
            _mm512_sub_pd(_mm512_loadu_pd(s + r), md));
        __m256 x1 = _mm512_cvtpd_ps(
            _mm512_sub_pd(_mm512_loadu_pd(s + r + 8), md));
        // Combine/split through f64x4 lane ops (AVX512F; the f32x8
        // variants would need DQ).
        __m512 e = expPs16(_mm512_castpd_ps(_mm512_insertf64x4(
            _mm512_castps_pd(_mm512_castps256_ps512(x0)),
            _mm256_castps_pd(x1), 1)));
        _mm512_storeu_pd(
            p + r,
            _mm512_cvtps_pd(_mm512_castps512_ps256(e)));
        _mm512_storeu_pd(
            p + r + 8,
            _mm512_cvtps_pd(_mm256_castpd_ps(_mm512_extractf64x4_pd(
                _mm512_castps_pd(e), 1))));
    }
    for (; r + 8 <= n; r += 8) {
        __m256 x = _mm512_cvtpd_ps(
            _mm512_sub_pd(_mm512_loadu_pd(s + r), md));
        __m512 e = expPs16(_mm512_castps256_ps512(x));
        _mm512_storeu_pd(
            p + r,
            _mm512_cvtps_pd(_mm512_castps512_ps256(e)));
    }
    for (; r < n; ++r)
        p[r] = static_cast<double>(
            std::exp(static_cast<float>(s[r] - m)));
}

} // namespace detail
} // namespace runtime
} // namespace m2x

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
 * This translation unit is compiled with -mavx2 -mfma -mavx512f
 * -mavx512bw and must only be entered through the runtime dispatch
 * (simdIsaAvailable guards).
 */

#include <cmath>
#include <immintrin.h>
#include <limits>

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

/**
 * @file
 * AVX2+FMA tier of the KV-cache attention primitives: 4-wide double
 * FMA chains for the per-head score dots and value accumulations,
 * and an 8-wide polynomial float exp for the online-softmax
 * exponential weights.
 *
 * Precision contract: dots and accumulations run entirely in
 * double. The two dot chains reassociate the sum and the FMAs fuse
 * the multiply-add, so results differ from the scalar oracle only
 * at double ulp level — invisible after the float cast of the score
 * and orders of magnitude inside the model tolerance. expWeights is
 * the exception: the Cephes expf polynomial evaluated in float
 * (~2 float ulp, ~1e-7 relative) before widening back to double —
 * inside the packed 1e-5 contract, never used by the bit-exact fp32
 * path.
 *
 * This translation unit is compiled with -mavx2 -mfma and must only
 * be entered through the runtime dispatch (simdIsaAvailable guards).
 */

#include <cmath>
#include <immintrin.h>
#include <limits>

#include "runtime/kv_attend_kernels.hh"

namespace m2x {
namespace runtime {
namespace detail {

namespace {

/** Horizontal sum of a 4-double vector. */
inline double
hsumPd(__m256d v)
{
    __m128d s = _mm_add_pd(_mm256_castpd256_pd128(v),
                           _mm256_extractf128_pd(v, 1));
    s = _mm_add_sd(s, _mm_unpackhi_pd(s, s));
    return _mm_cvtsd_f64(s);
}

/** Widening load: 4 floats -> 4 doubles. */
inline __m256d
loadPs4(const float *p)
{
    return _mm256_cvtps_pd(_mm_loadu_ps(p));
}

/**
 * 8-wide float exp (Cephes expf scheme): clamp, split x into
 * n*ln2 + r with n = round(x*log2e), degree-5 polynomial on r,
 * scale by 2^n through the exponent bits.
 */
inline __m256
expPs(__m256 x)
{
    const __m256 hi = _mm256_set1_ps(88.3762626647949f);
    const __m256 lo = _mm256_set1_ps(-88.3762626647949f);
    const __m256 log2e = _mm256_set1_ps(1.44269504088896341f);
    const __m256 c1 = _mm256_set1_ps(0.693359375f);
    const __m256 c2 = _mm256_set1_ps(-2.12194440e-4f);
    const __m256 one = _mm256_set1_ps(1.0f);

    x = _mm256_min_ps(x, hi);
    x = _mm256_max_ps(x, lo);

    __m256 fx = _mm256_fmadd_ps(x, log2e, _mm256_set1_ps(0.5f));
    fx = _mm256_floor_ps(fx);
    x = _mm256_fnmadd_ps(fx, c1, x);
    x = _mm256_fnmadd_ps(fx, c2, x);

    __m256 z = _mm256_mul_ps(x, x);
    __m256 y = _mm256_set1_ps(1.9875691500e-4f);
    y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.3981999507e-3f));
    y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(8.3334519073e-3f));
    y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(4.1665795894e-2f));
    y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(1.6666665459e-1f));
    y = _mm256_fmadd_ps(y, x, _mm256_set1_ps(5.0000001201e-1f));
    y = _mm256_fmadd_ps(y, z, _mm256_add_ps(x, one));

    __m256i n = _mm256_cvtps_epi32(fx);
    n = _mm256_add_epi32(n, _mm256_set1_epi32(127));
    n = _mm256_slli_epi32(n, 23);
    return _mm256_mul_ps(y, _mm256_castsi256_ps(n));
}

} // anonymous namespace

void
scorePageAvx2(const float *q, const float *rows, size_t stride,
              size_t n_rows, size_t hd, unsigned n_heads,
              unsigned group, double inv_sqrt, double *scores,
              size_t s_stride, double *smax)
{
    // Widen each head's query slice to double once per page — the
    // conversion is exact, so every FMA input (and score bit) is
    // unchanged while the per-row cvt work becomes plain loads.
    constexpr size_t kMaxHd = 1024;
    alignas(32) double qd[kMaxHd];
    for (unsigned h = 0; h < n_heads; ++h) {
        const float *a = q + h * hd;
        const float *base = rows + (h / group) * hd;
        double *sh = scores + h * s_stride;
        double mx = -std::numeric_limits<double>::infinity();
        size_t wide = hd <= kMaxHd ? hd & ~size_t{3} : 0;
        for (size_t c = 0; c < wide; c += 4)
            _mm256_storeu_pd(qd + c, loadPs4(a + c));
        for (size_t r = 0; r < n_rows; ++r) {
            // Two 4-wide double chains cover the FMA latency.
            const float *b = base + r * stride;
            __m256d s0 = _mm256_setzero_pd();
            __m256d s1 = _mm256_setzero_pd();
            size_t c = 0;
            for (; c + 8 <= wide; c += 8) {
                s0 = _mm256_fmadd_pd(_mm256_load_pd(qd + c),
                                     loadPs4(b + c), s0);
                s1 = _mm256_fmadd_pd(_mm256_load_pd(qd + c + 4),
                                     loadPs4(b + c + 4), s1);
            }
            for (; c + 8 <= hd; c += 8) {
                s0 = _mm256_fmadd_pd(loadPs4(a + c), loadPs4(b + c),
                                     s0);
                s1 = _mm256_fmadd_pd(loadPs4(a + c + 4),
                                     loadPs4(b + c + 4), s1);
            }
            if (c + 4 <= hd) {
                __m256d qa = c + 4 <= wide ? _mm256_load_pd(qd + c)
                                           : loadPs4(a + c);
                s0 = _mm256_fmadd_pd(qa, loadPs4(b + c), s0);
                c += 4;
            }
            double dot = hsumPd(_mm256_add_pd(s0, s1));
            for (; c < hd; ++c)
                dot += static_cast<double>(a[c]) * b[c];
            double s = dot * inv_sqrt;
            sh[r] = s;
            mx = std::max(mx, s);
        }
        smax[h] = mx;
    }
}

void
accumPageAvx2(const double *w, size_t w_stride, const float *rows,
              size_t stride, size_t n_rows, size_t hd,
              unsigned n_heads, unsigned group, double *acc)
{
    for (unsigned h = 0; h < n_heads; ++h) {
        const double *wh = w + h * w_stride;
        const float *base = rows + (h / group) * hd;
        double *ar = acc + h * hd;
        size_t c = 0;
        // Channel-outer, row-inner with the accumulator held in
        // registers across the page: per channel lane the adds stay
        // in ascending-row order; two chains cover the FMA latency.
        for (; c + 8 <= hd; c += 8) {
            __m256d a0 = _mm256_loadu_pd(ar + c);
            __m256d a1 = _mm256_loadu_pd(ar + c + 4);
            for (size_t r = 0; r < n_rows; ++r) {
                __m256d pv = _mm256_set1_pd(wh[r]);
                const float *b = base + r * stride + c;
                a0 = _mm256_fmadd_pd(pv, loadPs4(b), a0);
                a1 = _mm256_fmadd_pd(pv, loadPs4(b + 4), a1);
            }
            _mm256_storeu_pd(ar + c, a0);
            _mm256_storeu_pd(ar + c + 4, a1);
        }
        for (; c + 4 <= hd; c += 4) {
            __m256d a0 = _mm256_loadu_pd(ar + c);
            for (size_t r = 0; r < n_rows; ++r)
                a0 = _mm256_fmadd_pd(_mm256_set1_pd(wh[r]),
                                     loadPs4(base + r * stride + c),
                                     a0);
            _mm256_storeu_pd(ar + c, a0);
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
expWeightsAvx2(const double *s, double m, size_t n, double *p)
{
    __m256d md = _mm256_set1_pd(m);
    size_t r = 0;
    for (; r + 8 <= n; r += 8) {
        // Two 4-double differences narrowed to one 8-float vector,
        // one polynomial exp, widened back to two 4-double stores.
        __m128 x0 = _mm256_cvtpd_ps(
            _mm256_sub_pd(_mm256_loadu_pd(s + r), md));
        __m128 x1 = _mm256_cvtpd_ps(
            _mm256_sub_pd(_mm256_loadu_pd(s + r + 4), md));
        __m256 e = expPs(_mm256_set_m128(x1, x0));
        _mm256_storeu_pd(p + r,
                         _mm256_cvtps_pd(_mm256_castps256_ps128(e)));
        _mm256_storeu_pd(
            p + r + 4,
            _mm256_cvtps_pd(_mm256_extractf128_ps(e, 1)));
    }
    for (; r < n; ++r)
        p[r] = static_cast<double>(
            std::exp(static_cast<float>(s[r] - m)));
}

} // namespace detail
} // namespace runtime
} // namespace m2x

/**
 * @file
 * Internal per-ISA kernel table for the packed KV-cache attention
 * (runtime/kv_cache).
 *
 * The blocked online-softmax attend spends its time in three
 * primitives per cached row: the per-head score dot q_h · k_h, the
 * exponential weighting p_r = exp(s_r - m) of one head's page-local
 * scores against the running max, and the per-head value
 * accumulation acc_h += p_h * v_h. Dots and accumulations run in
 * double precision — the scalar tier with independent plain-C
 * chains, the AVX2+FMA tier with 4-wide and the AVX-512 tier with
 * 8-wide double FMA vectors — so the difference vs the oracle's
 * single ascending chain stays at double-ulp level (~1e-16
 * relative). The exponential is the one place the tiers genuinely
 * diverge: the scalar tier calls the libm double exp (the numerics
 * oracle), the vector tiers run a polynomial float exp (Cephes
 * expf ported to 8/16-wide SIMD, ~2 float-ulp), which lands within
 * the packed model tolerance (1e-5) but not bitwise — which is why
 * the fp32 bit-exact path never calls expWeights.
 *
 * The flash attend drives them through page-granular batch entry
 * points — scorePage / accumPage — one call per (query, page)
 * instead of one per cached row, so the per-row cost is pure kernel
 * arithmetic: no indirect calls, no head-major scatter/gather
 * staging, and the value accumulator stays register-resident across
 * the page. The page decode that feeds them is not an attend
 * primitive: it is the packed GEMM's rows decoder
 * (detail::rowsDecoder, packed_gemm_kernels.hh), called once per K
 * or V page — one decode kernel per stream and tier for both.
 *
 * Grouped-query attention threads through as @p group: query head h
 * reads K/V head h / group, so a K/V row carries n_heads / group
 * head slices. group == 1 is classic MHA.
 *
 * Not installed API — tests include it for direct kernel access.
 */

#ifndef M2X_RUNTIME_KV_ATTEND_KERNELS_HH__
#define M2X_RUNTIME_KV_ATTEND_KERNELS_HH__

#include <cstddef>

#include "runtime/kv_page_arena.hh"
#include "runtime/simd.hh"

namespace m2x {
namespace runtime {
namespace detail {

/**
 * Read-only view of one paged K or V stream: resolves absolute cache
 * row j to its page (j / pageRows) and local row (j % pageRows), so
 * the attend loops walk page tables instead of contiguous streams.
 * The view captures raw pointers — valid only while the owning cache
 * neither appends to this layer nor releases (the attend contract).
 */
struct PagedKvView
{
    const KvPageArena *arena;
    const KvPageId *table;

    /** Dense row j of an Fp32-mode stream. */
    const float *
    fp32Row(size_t j) const
    {
        size_t pr = arena->pageRows();
        return arena->fp32Rows(table[j / pr]) +
               (j % pr) * arena->dModel();
    }

    /** Packed page holding row j; @p local gets the in-page row. */
    const PackedM2xfpTensor &
    packedOf(size_t j, size_t &local) const
    {
        size_t pr = arena->pageRows();
        local = j % pr;
        return arena->packedPage(table[j / pr]);
    }
};

/**
 * Exponential weights of one head's page-local scores against the
 * (already updated) running max: p[r] = exp(s[r] - m) for r in
 * [0, n). Every s[r] <= m by construction, so the result is in
 * (0, 1]. Scalar tier: libm double exp. Vector tiers: polynomial
 * float exp, widened back to double.
 */
using ExpWeightsFn = void (*)(const double *s, double m, size_t n,
                              double *p);

/**
 * Score one query row against a decoded page slab: for every head,
 * scores[h * s_stride + r] = (q_h · rows_r,h) * inv_sqrt for r in
 * [0, n_rows), and smax[h] = max_r of that head's page scores. Dots
 * accumulate in double in a few independent chains per tier, so a
 * score differs from the single ascending chain only at double-ulp
 * level.
 */
using ScorePageFn = void (*)(const float *q, const float *rows,
                             size_t stride, size_t n_rows, size_t hd,
                             unsigned n_heads, unsigned group,
                             double inv_sqrt, double *scores,
                             size_t s_stride, double *smax);

/**
 * Accumulate one query's weighted page values: acc[h*hd + c] +=
 * sum_r w[h * w_stride + r] * rows[r * stride + (h/group)*hd + c],
 * each channel's additions in ascending-row order, with the
 * accumulator held in registers across the page.
 */
using AccumPageFn = void (*)(const double *w, size_t w_stride,
                             const float *rows, size_t stride,
                             size_t n_rows, size_t hd,
                             unsigned n_heads, unsigned group,
                             double *acc);

/** The per-ISA primitive set used by KvCache::attend. */
struct AttendKernels
{
    ExpWeightsFn expWeights;
    ScorePageFn scorePage;
    AccumPageFn accumPage;
};

/**
 * Kernel table for @p isa. Asking for a tier that is not compiled in
 * returns the scalar table (callers guard with simdIsaAvailable).
 */
const AttendKernels &attendKernels(SimdIsa isa);

/** @{ Scalar tier: independent plain-C chains, libm double exp. */
void expWeightsScalar(const double *s, double m, size_t n,
                      double *p);
void scorePageScalar(const float *q, const float *rows,
                     size_t stride, size_t n_rows, size_t hd,
                     unsigned n_heads, unsigned group,
                     double inv_sqrt, double *scores,
                     size_t s_stride, double *smax);
void accumPageScalar(const double *w, size_t w_stride,
                     const float *rows, size_t stride, size_t n_rows,
                     size_t hd, unsigned n_heads, unsigned group,
                     double *acc);
/** @} */

#ifdef M2X_HAVE_AVX2
/** @{ AVX2+FMA tier: 4-wide double FMA chains, 8-wide float exp. */
void expWeightsAvx2(const double *s, double m, size_t n, double *p);
void scorePageAvx2(const float *q, const float *rows, size_t stride,
                   size_t n_rows, size_t hd, unsigned n_heads,
                   unsigned group, double inv_sqrt, double *scores,
                   size_t s_stride, double *smax);
void accumPageAvx2(const double *w, size_t w_stride,
                   const float *rows, size_t stride, size_t n_rows,
                   size_t hd, unsigned n_heads, unsigned group,
                   double *acc);
/** @} */
#endif // M2X_HAVE_AVX2

#ifdef M2X_HAVE_AVX512
/** @{ AVX-512 tier: 8-wide double FMA chains, 16-wide float exp. */
void expWeightsAvx512(const double *s, double m, size_t n,
                      double *p);
void scorePageAvx512(const float *q, const float *rows,
                     size_t stride, size_t n_rows, size_t hd,
                     unsigned n_heads, unsigned group,
                     double inv_sqrt, double *scores,
                     size_t s_stride, double *smax);
void accumPageAvx512(const double *w, size_t w_stride,
                     const float *rows, size_t stride, size_t n_rows,
                     size_t hd, unsigned n_heads, unsigned group,
                     double *acc);
/** @} */
#endif // M2X_HAVE_AVX512

} // namespace detail
} // namespace runtime
} // namespace m2x

#endif // M2X_RUNTIME_KV_ATTEND_KERNELS_HH__

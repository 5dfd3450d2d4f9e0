/**
 * @file
 * Internal per-ISA kernel table for the packed GEMM.
 *
 * Since the panel rework, packedMatmulNt is a cache-blocked GEMM
 * with an explicit block hierarchy chosen per ISA:
 *
 *   NC  columns of W form a *panel*: each panel's M2XFP groups are
 *       LUT-decoded exactly once per worker thread into an
 *       L2-resident buffer of NR-wide, k-major slivers (widened to
 *       double so the FMA kernels need no per-tile conversion), and
 *       that decoded panel is then reused across the full M
 *       dimension.
 *   MC  rows of A form a *block*, decoded once per (panel, block)
 *       task into a row-major double buffer.
 *   KC  slices the depth: the register-tile sweep walks K in KC
 *       chunks so one A-slice x W-slice working set stays hot while
 *       every register tile of the block consumes it.
 *   MRxNR is the register tile the ISA's microkernel computes per
 *       call, accumulating into a persistent double accumulator so
 *       KC slicing never splits a summation chain.
 *
 * packedMatmulNt owns the block grid, the thread distribution and
 * the per-thread panel cache; everything below — per-row LUT decode
 * into the panels and the register-tile accumulation — is an
 * ISA-specific kernel selected through gemmKernels(). The scalar
 * tier accumulates each output in ascending-k order, excluding the
 * zero pad, and is bit-exact against matmulNt(unpack, unpack);
 * vector tiers may reassociate the sum and sweep the zero-padded
 * tail (verified to tight tolerance by tests/runtime/simd_test.cc).
 * All tiers decode identical values: the vector LUT decodes are
 * bit-identical to runtime/decode_lut.
 *
 * Not installed API — tests include it for direct kernel access.
 */

#ifndef M2X_RUNTIME_PACKED_GEMM_KERNELS_HH__
#define M2X_RUNTIME_PACKED_GEMM_KERNELS_HH__

#include <cstddef>

#include "core/m2xfp_packed.hh"
#include "quant/matrix.hh"
#include "runtime/codec_traits.hh"
#include "runtime/simd.hh"
#include "runtime/thread_pool.hh"

namespace m2x {
namespace runtime {
namespace detail {

/**
 * The cache-block hierarchy of the panel GEMM. mr/nr are the
 * register tile compiled into the ISA's microkernel and cannot be
 * overridden; mc/kc/nc are the cache blocks (defaults per ISA,
 * overridable via M2X_GEMM_MC/KC/NC — see gemmBlocking()).
 */
struct GemmBlocking
{
    size_t mr; //!< register tile rows (A rows per microkernel call)
    size_t nr; //!< register tile cols (W rows per sliver)
    size_t mc; //!< A block rows per task (multiple of mr)
    size_t kc; //!< depth slice per register-tile sweep
    size_t nc; //!< W panel rows per task column (multiple of nr)
};

/**
 * Accumulate one register tile over the depth range [p0, p1):
 *
 *   acc[ii*acc_stride + jj] +=
 *       sum_{p in [p0,p1)} a[ii*a_stride + p] * ws[p*nr + jj]
 *
 * for ii in [0, mr_cur), jj in [0, nr). @p a is the decoded A block
 * (row-major doubles), @p ws one k-major NR-wide W sliver (zero
 * padded to full nr width and past the true depth). The scalar tier
 * adds every product directly into acc in ascending-p order, so KC
 * slicing keeps each output a single ascending chain; vector tiers
 * reduce lane partials into acc at the end of the range.
 */
using MicroKernelFn = void (*)(const double *a, size_t a_stride,
                               const double *ws, size_t nr,
                               size_t p0, size_t p1, size_t mr_cur,
                               double *acc, size_t acc_stride);

/** Decode one tensor row into a group-padded float buffer. */
using DecodeRowFn = void (*)(const PackedM2xfpTensor &t, size_t row,
                             float *out);

/** The per-ISA kernel set used by packedMatmulNt. */
struct GemmKernels
{
    DecodeRowFn decodeActivationRow;
    DecodeRowFn decodeWeightRow;
    MicroKernelFn microKernel;
    GemmBlocking blocking;    //!< per-ISA default block hierarchy
    /** Vector tiers sweep the zero-padded K tail; the scalar oracle
     *  must exclude it to keep the reference summation chain. */
    bool accumulatePadding;
};

/**
 * Kernel table for @p isa. Asking for a tier that is not compiled in
 * returns the scalar table (callers guard with simdIsaAvailable).
 */
const GemmKernels &gemmKernels(SimdIsa isa);

/**
 * The row decoder for a stream of group decode kind @p kind and
 * geometry @p info on @p isa: the tier's Elem-EM or Sg-EM kernel
 * where decodeFamily() names one, else the generic traits kernel.
 */
DecodeRowFn rowDecoder(GroupDecodeKind kind,
                       const PackedCodecInfo &info, SimdIsa isa);

/**
 * The block hierarchy packedMatmulNt uses for @p isa: the kernel
 * table's defaults with the M2X_GEMM_MC / M2X_GEMM_KC / M2X_GEMM_NC
 * environment overrides applied (parsed once per process; values are
 * rounded up to the register tile / decode group so no override can
 * break a kernel invariant, malformed values warn and are ignored).
 */
GemmBlocking gemmBlocking(SimdIsa isa);

/**
 * The blocked GEMM with an explicit block hierarchy — the bench's
 * per-block-size sweep and the block-boundary tests use this to pin
 * mc/kc/nc regardless of the environment. @p blocking must come from
 * normalizeBlocking() (or gemmBlocking()) for the same ISA.
 */
void packedMatmulNtBlocked(const PackedM2xfpTensor &a,
                           const PackedM2xfpTensor &w, Matrix &c,
                           ThreadPool *pool, SimdIsa isa,
                           const GemmBlocking &blocking);

/**
 * Clamp an arbitrary mc/kc/nc request onto @p isa's register tile:
 * mc to a multiple of mr, nc to a multiple of nr, kc to a multiple
 * of the decode group size (all at least one unit).
 */
GemmBlocking normalizeBlocking(SimdIsa isa, size_t mc, size_t kc,
                               size_t nc);

/**
 * parallelFor grain (tasks per chunk) for the blocked GEMM's
 * n_ic x n_jc block grid distributed over @p lanes. Tasks enumerate
 * ic-fastest: a stripe of n_ic consecutive tasks shares one decoded
 * W panel. Invariants (asserted by the tests):
 *  - 1 <= grain <= max(n_tasks, 1);
 *  - for lanes >= 2, the chunk count ceil(n_tasks/grain) is at least
 *    min(n_tasks, 2*lanes) — no shape (hence no mc/nc block
 *    configuration) serializes onto one lane while tasks remain;
 *  - when panel stripes alone balance the lanes (n_jc >= 2*lanes)
 *    the grain is a whole stripe, so each W panel is decoded exactly
 *    once per stripe.
 */
size_t packedGemmGrain(size_t n_ic, size_t n_jc, size_t lanes);

/** @{ Scalar tier: ascending-k double accumulation, the bit-exact
 *  oracle. */
void microKernelScalar(const double *a, size_t a_stride,
                       const double *ws, size_t nr, size_t p0,
                       size_t p1, size_t mr_cur, double *acc,
                       size_t acc_stride);
/** @} */

#ifdef M2X_HAVE_AVX2
/** @{ AVX2+FMA tier: vector LUT decode, 4-wide double FMA. */
void microKernelAvx2(const double *a, size_t a_stride,
                     const double *ws, size_t nr, size_t p0,
                     size_t p1, size_t mr_cur, double *acc,
                     size_t acc_stride);

void decodeActivationRowAvx2(const PackedM2xfpTensor &t, size_t row,
                             float *out);
void decodeWeightRowAvx2(const PackedM2xfpTensor &t, size_t row,
                         float *out);

/** @{
 * Vector group decodes, bit-identical to runtime/decode_lut —
 * exposed for the vector-vs-scalar exactness tests.
 */
void decodeActivationGroupAvx2(const PackedM2xfpTensor &t, size_t row,
                               size_t group, float *out);
void decodeWeightGroupAvx2(const PackedM2xfpTensor &t, size_t row,
                           size_t group, float *out);
/** @} */
/** @} */
#endif // M2X_HAVE_AVX2

#ifdef M2X_HAVE_AVX512
/** @{ AVX-512 tier: full-table vpermps decode, 8-wide double FMA.
 *  Activation-row decode is shared with the AVX2 tier (the Elem-EM
 *  top-1 fixup is already vectorized there and bit-identical). */
void microKernelAvx512(const double *a, size_t a_stride,
                       const double *ws, size_t nr, size_t p0,
                       size_t p1, size_t mr_cur, double *acc,
                       size_t acc_stride);
void decodeWeightRowAvx512(const PackedM2xfpTensor &t, size_t row,
                           float *out);
void decodeWeightGroupAvx512(const PackedM2xfpTensor &t, size_t row,
                             size_t group, float *out);
/** @} */
#endif // M2X_HAVE_AVX512

} // namespace detail
} // namespace runtime
} // namespace m2x

#endif // M2X_RUNTIME_PACKED_GEMM_KERNELS_HH__

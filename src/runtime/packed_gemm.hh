/**
 * @file
 * Blocked multi-threaded GEMM directly on packed M2XFP streams.
 *
 * packedMatmulNt computes C[M,N] = A * W^T where A is an
 * activation-role (Elem-EM) packed tensor [M,K] and W a weight-role
 * (Sg-EM) packed tensor [N,K] — the same contract as
 * matmulNt(unpackActivations, unpackWeights). On the scalar ISA tier
 * it is bit-exact against that reference: every output element
 * accumulates its K products in double precision in ascending-k
 * order, so tiling and threading cannot change a single ULP. Vector
 * tiers (runtime-dispatched, see runtime/simd.hh) decode the exact
 * same values but reassociate the accumulation across SIMD lanes;
 * they are verified against the scalar oracle to tight tolerance.
 *
 * What *is* different from the reference is the execution: operands
 * stay packed in memory (4.5 bits/element) and the driver is a
 * cache-blocked panel GEMM (Goto-style, see packed_gemm_kernels.hh).
 * Each NC×KC block of W is LUT-decoded **once** into an L2-resident
 * k-major panel and reused across the full M dimension — never once
 * per output tile — while an MR×NR register-tile microkernel per ISA
 * sweeps KC-deep slices into a persistent double accumulator (one
 * unbroken summation chain per output, which is what keeps the
 * scalar tier bit-exact under blocking). No full dequantized matrix
 * is ever materialized. (jc, ic) block pairs are independent and are
 * distributed over a ThreadPool with panel-friendly chunking
 * (detail::packedGemmGrain). Block sizes are fixed per ISA
 * (detail::gemmBlocking).
 */

#ifndef M2X_RUNTIME_PACKED_GEMM_HH__
#define M2X_RUNTIME_PACKED_GEMM_HH__

#include "core/m2xfp_packed.hh"
#include "quant/matrix.hh"
#include "runtime/simd.hh"
#include "runtime/thread_pool.hh"

namespace m2x {
namespace runtime {

/**
 * C[M,N] = A[M,K] * W^T, consuming the packed byte streams directly,
 * on the process's active ISA tier (activeSimdIsa()).
 *
 * @param a activation-role packed tensor (Elem-EM metadata)
 * @param w weight-role packed tensor (Sg-EM metadata), [N,K] row
 *        layout like matmulNt's b_nk
 * @param c resized to [M,N] and overwritten; storage is reused
 *        (not reallocated) when its capacity already fits, so a
 *        caller-held output buffer makes the steady state
 *        allocation-free
 * @param pool thread pool to distribute tiles over; null uses the
 *        process-global pool
 */
void packedMatmulNt(const PackedM2xfpTensor &a,
                    const PackedM2xfpTensor &w, Matrix &c,
                    ThreadPool *pool = nullptr);

/** Convenience overload returning the result. */
Matrix packedMatmulNt(const PackedM2xfpTensor &a,
                      const PackedM2xfpTensor &w,
                      ThreadPool *pool = nullptr);

/** @{
 * Same, but on an explicitly requested ISA tier (which must be
 * available — asserted). SimdIsa::Scalar is the bit-exact oracle;
 * tests and the per-ISA bench comparison use these to pin a tier
 * regardless of M2X_SIMD.
 */
void packedMatmulNt(const PackedM2xfpTensor &a,
                    const PackedM2xfpTensor &w, Matrix &c,
                    ThreadPool *pool, SimdIsa isa);
Matrix packedMatmulNt(const PackedM2xfpTensor &a,
                      const PackedM2xfpTensor &w, ThreadPool *pool,
                      SimdIsa isa);
/** @} */

} // namespace runtime
} // namespace m2x

#endif // M2X_RUNTIME_PACKED_GEMM_HH__

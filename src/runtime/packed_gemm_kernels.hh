/**
 * @file
 * Internal per-ISA kernel table for the packed GEMM.
 *
 * packedMatmulNt is a cache-blocked GEMM with an explicit block
 * hierarchy chosen per ISA, plus a panel-free path for decode-sized
 * M:
 *
 *   NC  columns of W form a *panel*: each panel's M2XFP groups are
 *       decoded exactly once per worker thread into an L2-resident
 *       buffer of NR-wide, k-major slivers (widened to double so
 *       the FMA kernels need no per-tile conversion), and that
 *       decoded panel is then reused across the full M dimension.
 *       The sliver decoder writes the k-major layout directly: on
 *       the vector tiers one masked gather per (group, subgroup)
 *       loads the subgroup's 32-bit element word from each of the
 *       NR rows, so every depth position is a shift, a vpermps LUT
 *       lookup, a per-lane scale multiply and two contiguous double
 *       stores — no per-weight scalar transpose.
 *   MC  rows of A form a *block*, decoded once per (panel, block)
 *       task into a row-major double buffer.
 *   KC  slices the depth: the register-tile sweep walks K in KC
 *       chunks so one A-slice x W-slice working set stays hot while
 *       every register tile of the block consumes it.
 *   MRxNR is the register tile the ISA's microkernel computes per
 *       call, accumulating into a persistent double accumulator so
 *       KC slicing never splits a summation chain.
 *
 * At decode-sized M (at most MR rows of A) the vector tiers write no
 * panel: the sliver tile runs the same sliver decode and feeds each
 * depth position straight to the register tile's FMAs. Its outputs
 * are the panel path's chains, bit for bit, so no row's output
 * depends on the batch size.
 *
 * packedMatmulNt owns the path choice, the block grid, the thread
 * distribution and the per-thread panel cache; everything below —
 * the sliver decode of W, the row decode of the A blocks and the
 * register-tile accumulation — is an ISA-specific kernel selected
 * through gemmKernels(). The scalar
 * tier accumulates each output in ascending-k order, excluding the
 * zero pad, and is bit-exact against matmulNt(unpack, unpack);
 * vector tiers may reassociate the sum and sweep the zero-padded
 * tail (verified to tight tolerance by tests/runtime/simd_test.cc).
 * All tiers decode identical values: the scalar tier runs the
 * generic CodecTraits kernels, and the vector LUT decodes stage the
 * same tables and are bit-identical to them.
 *
 * The row decoders are shared with the KV attend: rowsDecoder() is
 * the one place a stream's decode kernel is chosen, for the GEMM's A
 * blocks and for the attend's K/V pages alike.
 *
 * Not installed API — tests include it for direct kernel access.
 */

#ifndef M2X_RUNTIME_PACKED_GEMM_KERNELS_HH__
#define M2X_RUNTIME_PACKED_GEMM_KERNELS_HH__

#include <cstddef>
#include <type_traits>
#include <utility>

#include "core/m2xfp_packed.hh"
#include "quant/matrix.hh"
#include "runtime/codec_traits.hh"
#include "runtime/simd.hh"
#include "runtime/thread_pool.hh"
#include "util/logging.hh"

namespace m2x {
namespace runtime {
namespace detail {

/**
 * The cache-block hierarchy of the panel GEMM. mr/nr are the
 * register tile compiled into the ISA's microkernel; mc/kc/nc are
 * the cache blocks (defaults per ISA — see gemmBlocking()).
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

/**
 * Decode @p n_rows consecutive rows of @p t into a dense float slab:
 * row @p row0 + r lands at out + r * stride (stride >= groupsPerRow *
 * groupSize — tail-group padding included). The GEMM decodes one A
 * row per call, the attend one K or V page per call.
 */
using DecodeRowsFn = void (*)(const PackedM2xfpTensor &t, size_t row0,
                              size_t n_rows, size_t stride,
                              float *out);

/**
 * Decode the weight rows [jbase, jbase + jlim) of @p w straight into
 * one k-major NR-wide sliver of the W panel:
 *
 *   sliver[p*nr + lane] = (double) W(jbase + lane, p)
 *
 * for lane < jlim (1 <= jlim <= nr) and p < w.cols(); the pad lanes
 * (jlim <= lane < nr) and the depth pad (w.cols() <= p <
 * groupsPerRow * groupSize) are +0.0. Every entry is bit-identical
 * to the row decode followed by a float-to-double widening
 * transpose (decodeWeightSliverScalar).
 */
using DecodeSliverFn = void (*)(const PackedM2xfpTensor &w,
                                size_t jbase, size_t jlim, size_t nr,
                                double *sliver);

/**
 * The decode-fused tile of the panel-free path: for @p rows <= mr A
 * rows, c = the microkernel sweep (from acc = +0.0, acc_stride = nr)
 * over the whole padded depth of the sliver decodeWeightSliver would
 * write for W rows [jbase, jbase + jlim) — bit-identical, with the
 * sliver decoded straight into registers.
 */
using SliverTileFn = void (*)(const PackedM2xfpTensor &w, size_t jbase,
                              size_t jlim, const double *a,
                              size_t a_stride, size_t rows, double *c);

/** f(std::integral_constant<size_t, rows>) for 1 <= rows <= Max:
 *  the vector register tiles are compiled per row count. */
template <size_t Max, class F>
inline void
withTileRows(size_t rows, F &&f)
{
    m2x_assert(rows >= 1 && rows <= Max, "tile rows %zu not in [1, %zu]",
               rows, Max);
    [&]<size_t... R>(std::index_sequence<R...>) {
        ((rows == R + 1 ? f(std::integral_constant<size_t, R + 1>{})
                        : void()),
         ...);
    }(std::make_index_sequence<Max>{});
}

/** The per-ISA kernel set used by packedMatmulNt. */
struct GemmKernels
{
    /** Elem-EM family rows (see rowsDecoder). */
    DecodeRowsFn decodeActivationRows;
    /** Sg-EM family rows. */
    DecodeRowsFn decodeWeightRows;
    /** Sg-EM family weight panels: the sliver form of
     *  decodeWeightRows (see sliverDecoder). */
    DecodeSliverFn decodeWeightSliver;
    /** Null on the scalar tier (see sliverTile). */
    SliverTileFn sliverTile;
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
 * The rows decoder for a stream of group decode kind @p kind and
 * geometry @p info on @p isa — the one decode selector of the
 * runtime, used by the GEMM's A side and the KV attend: the tier's
 * Elem-EM or Sg-EM rows kernel where decodeFamily() names one, else
 * the generic traits kernel of the role (codecDecodeWeightRows for
 * SubgroupMult, else codecDecodeRows).
 */
DecodeRowsFn rowsDecoder(GroupDecodeKind kind,
                         const PackedCodecInfo &info, SimdIsa isa);

/**
 * The W-panel sliver decoder for weights of geometry @p info on
 * @p isa: the tier's vector sliver kernel where rowsDecoder() hands
 * the weights the tier's Sg-EM rows kernel, else
 * decodeWeightSliverScalar (the generic traits row decode plus
 * transpose).
 */
DecodeSliverFn sliverDecoder(const PackedCodecInfo &info, SimdIsa isa);

/** The tier's sliverTile where sliverDecoder() hands weights of
 *  geometry @p info the tier's own sliver kernel, else null. */
SliverTileFn sliverTile(const PackedCodecInfo &info, SimdIsa isa);

/**
 * The block hierarchy packedMatmulNt uses for @p isa: the kernel
 * table's defaults, normalized (normalizeBlocking).
 */
GemmBlocking gemmBlocking(SimdIsa isa);

/**
 * The blocked GEMM with an explicit block hierarchy — the bench's
 * per-block-size sweep and the block-boundary tests use this to pin
 * mc/kc/nc. @p blocking must come from
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
 *  oracle. Its row decoders are the generic CodecTraits kernels;
 *  its sliver decoder is their weight-role row decode plus a
 *  widening transpose — the oracle of the vector sliver decoders and
 *  the fallback for generic-family weights (M2-NVFP4) on every
 *  tier. */
void decodeWeightSliverScalar(const PackedM2xfpTensor &w, size_t jbase,
                              size_t jlim, size_t nr, double *sliver);
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

/** Elem-EM rows: 8-entry magnitude vpermps + sign per subgroup,
 *  vector top-1 argmax. */
void decodeActivationRowsAvx2(const PackedM2xfpTensor &t, size_t row0,
                              size_t n_rows, size_t stride,
                              float *out);
void decodeWeightRowsAvx2(const PackedM2xfpTensor &t, size_t row0,
                          size_t n_rows, size_t stride, float *out);
/** Sg-EM sliver decode for nr=8: one masked gather per subgroup. */
void decodeWeightSliverAvx2(const PackedM2xfpTensor &w, size_t jbase,
                            size_t jlim, size_t nr, double *sliver);
void sliverTileKernelAvx2(const PackedM2xfpTensor &w, size_t jbase,
                          size_t jlim, const double *a,
                          size_t a_stride, size_t rows, double *c);

/** @{
 * Vector group decodes, bit-identical to the generic CodecTraits
 * kernels — exposed for the vector-vs-scalar exactness tests.
 */
void decodeActivationGroupAvx2(const PackedM2xfpTensor &t, size_t row,
                               size_t group, float *out);
void decodeWeightGroupAvx2(const PackedM2xfpTensor &t, size_t row,
                           size_t group, float *out);
/** @} */
/** @} */
#endif // M2X_HAVE_AVX2

#ifdef M2X_HAVE_AVX512
/** @{ AVX-512 tier: full-table vpermps decode, 8-wide double FMA. */
void microKernelAvx512(const double *a, size_t a_stride,
                       const double *ws, size_t nr, size_t p0,
                       size_t p1, size_t mr_cur, double *acc,
                       size_t acc_stride);
/** Elem-EM rows: two 16-lane halves per group, in-register top-1
 *  segmented max and a 64-entry vpermt2ps FP6 lookup. */
void decodeActivationRowsAvx512(const PackedM2xfpTensor &t,
                                size_t row0, size_t n_rows,
                                size_t stride, float *out);
void decodeWeightRowsAvx512(const PackedM2xfpTensor &t, size_t row0,
                            size_t n_rows, size_t stride, float *out);
/** Sg-EM sliver decode for nr=16: one masked gather per subgroup. */
void decodeWeightSliverAvx512(const PackedM2xfpTensor &w, size_t jbase,
                              size_t jlim, size_t nr, double *sliver);
void sliverTileKernelAvx512(const PackedM2xfpTensor &w, size_t jbase,
                            size_t jlim, const double *a,
                            size_t a_stride, size_t rows, double *c);
void decodeWeightGroupAvx512(const PackedM2xfpTensor &t, size_t row,
                             size_t group, float *out);
/** @} */
#endif // M2X_HAVE_AVX512

} // namespace detail
} // namespace runtime
} // namespace m2x

#endif // M2X_RUNTIME_PACKED_GEMM_KERNELS_HH__

#include "runtime/packed_gemm.hh"

#include <algorithm>
#include <atomic>
#include <vector>

#include "runtime/codec_traits.hh"
#include "runtime/packed_gemm_kernels.hh"
#include "runtime/telemetry.hh"
#include "util/bits.hh"
#include "util/logging.hh"

namespace m2x {
namespace runtime {

namespace {

constexpr size_t groupSize = PackedM2xfpTensor::groupSize;

/**
 * Distinguishes per-thread W panel caches across GEMM calls: a
 * thread-local buffer keyed only on the panel index could alias a
 * previous call's tensor (same address, different data).
 */
std::atomic<uint64_t> call_counter{0};

/**
 * Decode the A rows [i0, i0 + rows) to row-major doubles of stride
 * padded_k, zero past the true depth — the form both GEMM paths read.
 */
void
decodeARows(detail::DecodeRowsFn decode, const PackedM2xfpTensor &a,
            size_t i0, size_t rows, size_t padded_k, double *out)
{
    thread_local std::vector<float> rowbuf;
    rowbuf.resize(padded_k);
    for (size_t ii = 0; ii < rows; ++ii) {
        decode(a, i0 + ii, 1, padded_k, rowbuf.data());
        double *ar = out + ii * padded_k;
        for (size_t p = 0; p < a.cols(); ++p)
            ar[p] = rowbuf[p];
        for (size_t p = a.cols(); p < padded_k; ++p)
            ar[p] = 0.0;
    }
}

} // anonymous namespace

namespace detail {

const GemmKernels &
gemmKernels(SimdIsa isa)
{
    // Cache blocks (mc/kc/nc) per tier: the decoded W panel is nc
    // slivers of padded_k doubles and the A block is mc rows of the
    // same depth, so the defaults keep panel + block + accumulator
    // inside a ~1 MiB L2 at the bench shapes while kc * nr sliver
    // slices stay L1-resident for the register-tile sweep.
    static const GemmKernels scalar{&codecDecodeRows,
                                    &codecDecodeWeightRows,
                                    &decodeWeightSliverScalar,
                                    /*sliverTile=*/nullptr,
                                    &microKernelScalar,
                                    {16, 16, 64, 256, 64},
                                    /*accumulatePadding=*/false};
#ifdef M2X_HAVE_AVX2
    static const GemmKernels avx2{&decodeActivationRowsAvx2,
                                  &decodeWeightRowsAvx2,
                                  &decodeWeightSliverAvx2,
                                  &sliverTileKernelAvx2,
                                  &microKernelAvx2,
                                  {4, 8, 128, 256, 128},
                                  /*accumulatePadding=*/true};
    if (isa == SimdIsa::Avx2)
        return avx2;
#endif
#ifdef M2X_HAVE_AVX512
    static const GemmKernels avx512{&decodeActivationRowsAvx512,
                                    &decodeWeightRowsAvx512,
                                    &decodeWeightSliverAvx512,
                                    &sliverTileKernelAvx512,
                                    &microKernelAvx512,
                                    {8, 16, 128, 256, 128},
                                    /*accumulatePadding=*/true};
    if (isa == SimdIsa::Avx512)
        return avx512;
#endif
    (void)isa;
    return scalar;
}

DecodeRowsFn
rowsDecoder(GroupDecodeKind kind, const PackedCodecInfo &info,
            SimdIsa isa)
{
    const GemmKernels &kern = gemmKernels(isa);
    switch (decodeFamily(kind, info)) {
    case DecodeFamily::ElemEm:
        return kern.decodeActivationRows;
    case DecodeFamily::SgEm:
        return kern.decodeWeightRows;
    case DecodeFamily::Generic:
        break;
    }
    return kind == GroupDecodeKind::SubgroupMult ? &codecDecodeWeightRows
                                                 : &codecDecodeRows;
}

DecodeSliverFn
sliverDecoder(const PackedCodecInfo &info, SimdIsa isa)
{
    // The sliver kernel is the panel form of the tier's Sg-EM rows
    // kernel, so it may decode exactly the streams rowsDecoder hands
    // that kernel.
    const GemmKernels &kern = gemmKernels(isa);
    if (rowsDecoder(GroupDecodeKind::SubgroupMult, info, isa) ==
        kern.decodeWeightRows)
        return kern.decodeWeightSliver;
    return &decodeWeightSliverScalar;
}

SliverTileFn
sliverTile(const PackedCodecInfo &info, SimdIsa isa)
{
    const GemmKernels &kern = gemmKernels(isa);
    return sliverDecoder(info, isa) == kern.decodeWeightSliver
               ? kern.sliverTile
               : nullptr;
}

void
decodeWeightSliverScalar(const PackedM2xfpTensor &w, size_t jbase,
                         size_t jlim, size_t nr, double *sl)
{
    size_t k = w.cols();
    size_t padded_k = w.groupsPerRow() * w.codecInfo().groupSize;
    thread_local std::vector<float> rowbuf_store;
    rowbuf_store.resize(padded_k);
    float *rowbuf = rowbuf_store.data();
    for (size_t lane = 0; lane < jlim; ++lane) {
        codecDecodeWeightRow(w, jbase + lane, rowbuf);
        for (size_t p = 0; p < k; ++p)
            sl[p * nr + lane] = rowbuf[p];
        for (size_t p = k; p < padded_k; ++p)
            sl[p * nr + lane] = 0.0;
    }
    for (size_t lane = jlim; lane < nr; ++lane)
        for (size_t p = 0; p < padded_k; ++p)
            sl[p * nr + lane] = 0.0;
}

GemmBlocking
normalizeBlocking(SimdIsa isa, size_t mc, size_t kc, size_t nc)
{
    GemmBlocking b = gemmKernels(isa).blocking;
    b.mc = ceilDiv(std::max<size_t>(mc, 1), b.mr) * b.mr;
    b.kc = ceilDiv(std::max<size_t>(kc, 1), groupSize) * groupSize;
    b.nc = ceilDiv(std::max<size_t>(nc, 1), b.nr) * b.nr;
    return b;
}

GemmBlocking
gemmBlocking(SimdIsa isa)
{
    const GemmBlocking &def = gemmKernels(isa).blocking;
    return normalizeBlocking(isa, def.mc, def.kc, def.nc);
}

size_t
packedGemmGrain(size_t n_ic, size_t n_jc, size_t lanes)
{
    size_t n_tasks = n_ic * n_jc;
    if (n_tasks == 0)
        return 1;
    // A serial pool runs inline anyway; one maximal chunk skips the
    // chunking overhead.
    if (lanes <= 1)
        return n_tasks;
    // Whole panel stripes when they already balance the lanes: each
    // W panel is then decoded by exactly one thread.
    if (n_jc >= 2 * lanes)
        return n_ic;
    // Otherwise split stripes (duplicated panel decode is the price
    // of parallelism across M): target ~4 chunks per lane, rounding
    // the grain up so tiny remainders don't explode the chunk count,
    // and never let a chunk exceed one stripe. With the ceiling,
    // every grid of at least 2*lanes tasks yields at least 2*lanes
    // chunks — no block configuration can serialize onto a few
    // lanes. (The stripe cap cannot bind here: grain > n_ic would
    // need n_jc > 4*lanes, contradicting n_jc < 2*lanes.)
    size_t target = ceilDiv(n_tasks, 4 * lanes);
    return std::clamp<size_t>(target, 1, n_ic);
}

void
packedMatmulNtBlocked(const PackedM2xfpTensor &a,
                      const PackedM2xfpTensor &w, Matrix &c,
                      ThreadPool *pool, SimdIsa isa,
                      const GemmBlocking &blocking)
{
    m2x_assert(a.cols() == w.cols(),
               "packedMatmulNt K mismatch: %zu vs %zu", a.cols(),
               w.cols());
    m2x_assert(a.codec() == w.codec(),
               "packedMatmulNt codec mismatch: %s vs %s",
               packedCodecName(a.codec()), packedCodecName(w.codec()));
    m2x_assert(simdIsaAvailable(isa),
               "packedMatmulNt: ISA tier '%s' is not available on "
               "this machine", simdIsaName(isa));
    size_t m = a.rows(), n = w.rows(), k = a.cols();
    // Resize in place: a caller-provided output buffer of the right
    // capacity is reused, not reallocated. Every element of the
    // block grid is written, so skipping the zero-fill is safe.
    c.resize(m, n);
    if (m == 0 || n == 0)
        return;

    const detail::GemmKernels &kern = detail::gemmKernels(isa);
    // The codec seam: the microkernels are decode-agnostic, so only
    // the A row decoder and the W sliver decoder are format-sensitive
    // — chosen by each operand's decode kind and geometry.
    const CodecTraits &tr = CodecTraits::get(a.codec());
    detail::DecodeRowsFn decode_act =
        detail::rowsDecoder(tr.actKind, *tr.info, isa);
    detail::DecodeSliverFn decode_wt =
        detail::sliverDecoder(*tr.info, isa);
    const size_t mr = blocking.mr, nr = blocking.nr;
    const size_t mc = blocking.mc, kc = blocking.kc;
    const size_t nc = blocking.nc;
    // kc stays a multiple of the paper group (32) for every codec —
    // also a multiple of the g16 M2-NVFP4 decode group.
    m2x_assert(mc % mr == 0 && nc % nr == 0 && kc % groupSize == 0,
               "packedMatmulNtBlocked: blocking %zux%zux%zu not "
               "normalized for mr=%zu nr=%zu", mc, kc, nc, mr, nr);
    size_t padded_k = a.groupsPerRow() * a.codecInfo().groupSize;
    // At decode-sized M a W panel would be read back once, so the
    // tiers with a decode-fused tile write none: one task per sliver
    // decodes it straight into the register tile, on the calling
    // thread alone for a W under two kc x nc blocks (waking the pool
    // would cost more than it saves).
    detail::SliverTileFn tile =
        m <= mr ? detail::sliverTile(*tr.info, isa) : nullptr;
    ThreadPool &tp = pool ? *pool : ThreadPool::global();
    size_t n_ic = ceilDiv(m, mc);
    size_t n_jc = tile ? ceilDiv(n, nr) : ceilDiv(n, nc);
    size_t n_tasks = n_ic * n_jc;
    size_t grain = tile && n * k < 2 * kc * nc
                       ? n_tasks
                       : detail::packedGemmGrain(n_ic, n_jc, tp.size());
    telemetry::TraceSpan span("gemm.packed");
    if (span.active()) {
        span.arg("m", m);
        span.arg("n", n);
        span.arg("k", k);
        span.arg("isa", simdIsaName(isa));
        span.arg("path", tile ? "tile" : "panel");
        span.arg("mc", mc);
        span.arg("kc", kc);
        span.arg("nc", nc);
        span.arg("tasks", n_tasks);
        span.arg("grain", grain);
    }

    if (tile) {
        // The m A rows are decoded once, shared by every lane.
        thread_local std::vector<double> arows_store;
        arows_store.resize(m * padded_k);
        double *arows = arows_store.data();
        decodeARows(decode_act, a, 0, m, padded_k, arows);
        m2x_assert(mr * nr <= 128, "sliver tile %zux%zu", mr, nr);
        tp.parallelFor(0, n_tasks, grain, [&](size_t t0, size_t t1) {
            double tc[128];
            for (size_t sv = t0; sv < t1; ++sv) {
                size_t jbase = sv * nr;
                size_t jlim = std::min(nr, n - jbase);
                tile(w, jbase, jlim, arows, padded_k, m, tc);
                for (size_t i = 0; i < m; ++i)
                    for (size_t jj = 0; jj < jlim; ++jj)
                        c(i, jbase + jj) =
                            static_cast<float>(tc[i * nr + jj]);
            }
        });
        return;
    }

    // The scalar oracle keeps each output a single ascending-k
    // summation chain over the true depth; vector tiers sweep the
    // zero-filled pad so their FMA loops need no tail handling.
    size_t p_end = kern.accumulatePadding ? padded_k : k;
    uint64_t call_id =
        call_counter.fetch_add(1, std::memory_order_relaxed) + 1;

    // Tasks enumerate ic-fastest so consecutive chunks reuse the
    // same decoded W panel (cached per thread, keyed call + panel):
    // the panel's groups are LUT-decoded once and reused across the
    // full M dimension.
    size_t sliver_stride = padded_k * nr;
    tp.parallelFor(
        0, n_tasks, grain,
        [&](size_t t0, size_t t1) {
            thread_local std::vector<double> panel_store;
            thread_local std::vector<double> ablock_store;
            thread_local std::vector<double> acc_store;
            thread_local uint64_t cached_call = 0;
            thread_local size_t cached_jc = SIZE_MAX;
            for (size_t t = t0; t < t1; ++t) {
                size_t jc = t / n_ic;
                size_t ic = t % n_ic;
                size_t j0 = jc * nc;
                size_t nc_cur = std::min(nc, n - j0);
                size_t n_slivers = ceilDiv(nc_cur, nr);
                size_t acc_stride = n_slivers * nr;
                if (cached_call != call_id || cached_jc != jc) {
                    // Pack the W panel: one sliver decoder call per
                    // nr-wide k-major sliver, widened to double,
                    // ragged lanes and the depth pad zero-filled so
                    // microkernels always see full nr x
                    // group-aligned slabs.
                    panel_store.resize(n_slivers * sliver_stride);
                    double *panel = panel_store.data();
                    for (size_t sv = 0; sv < n_slivers; ++sv) {
                        size_t jbase = j0 + sv * nr;
                        decode_wt(w, jbase, std::min(nr, n - jbase),
                                  nr, panel + sv * sliver_stride);
                    }
                    cached_call = call_id;
                    cached_jc = jc;
                }
                const double *panel = panel_store.data();

                // Decode the A block once per task.
                size_t i0 = ic * mc;
                size_t mc_cur = std::min(mc, m - i0);
                ablock_store.resize(mc_cur * padded_k);
                double *ab = ablock_store.data();
                decodeARows(decode_act, a, i0, mc_cur, padded_k, ab);

                // The block's persistent accumulator: KC slicing
                // adds into it across depth slices, so no summation
                // chain is ever split into partial sums.
                acc_store.assign(mc_cur * acc_stride, 0.0);
                double *acc = acc_store.data();
                for (size_t p0 = 0; p0 < p_end; p0 += kc) {
                    size_t p1 = std::min(p0 + kc, p_end);
                    for (size_t sv = 0; sv < n_slivers; ++sv) {
                        const double *sl =
                            panel + sv * sliver_stride;
                        for (size_t ir = 0; ir < mc_cur; ir += mr) {
                            size_t mr_cur =
                                std::min(mr, mc_cur - ir);
                            kern.microKernel(
                                ab + ir * padded_k, padded_k, sl,
                                nr, p0, p1, mr_cur,
                                acc + ir * acc_stride + sv * nr,
                                acc_stride);
                        }
                    }
                }

                for (size_t ii = 0; ii < mc_cur; ++ii) {
                    const double *arow = acc + ii * acc_stride;
                    for (size_t jj = 0; jj < nc_cur; ++jj)
                        c(i0 + ii, j0 + jj) =
                            static_cast<float>(arow[jj]);
                }
            }
        });
}

} // namespace detail

void
packedMatmulNt(const PackedM2xfpTensor &a, const PackedM2xfpTensor &w,
               Matrix &c, ThreadPool *pool, SimdIsa isa)
{
    detail::packedMatmulNtBlocked(a, w, c, pool, isa,
                                  detail::gemmBlocking(isa));
}

void
packedMatmulNt(const PackedM2xfpTensor &a, const PackedM2xfpTensor &w,
               Matrix &c, ThreadPool *pool)
{
    packedMatmulNt(a, w, c, pool, activeSimdIsa());
}

Matrix
packedMatmulNt(const PackedM2xfpTensor &a, const PackedM2xfpTensor &w,
               ThreadPool *pool, SimdIsa isa)
{
    Matrix c;
    packedMatmulNt(a, w, c, pool, isa);
    return c;
}

Matrix
packedMatmulNt(const PackedM2xfpTensor &a, const PackedM2xfpTensor &w,
               ThreadPool *pool)
{
    return packedMatmulNt(a, w, pool, activeSimdIsa());
}

} // namespace runtime
} // namespace m2x

#include "runtime/kv_cache.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "runtime/codec_traits.hh"
#include "runtime/decode_lut.hh"
#include "runtime/kv_attend_kernels.hh"
#include "runtime/packed_gemm_kernels.hh"
#include "runtime/telemetry.hh"
#include "util/bits.hh"
#include "util/logging.hh"

namespace m2x {
namespace runtime {

namespace detail {

void
expWeightsScalar(const double *s, double m, size_t n, double *p)
{
    for (size_t r = 0; r < n; ++r)
        p[r] = std::exp(s[r] - m);
}

/** A page decode as one row decode per row. */
template <DecodeRowFn DecodeRow>
void
decodeRowsWith(const PackedM2xfpTensor &t, size_t row0, size_t n_rows,
               size_t stride, float *out)
{
    for (size_t r = 0; r < n_rows; ++r)
        DecodeRow(t, row0 + r, out + r * stride);
}

void
decodeRowsScalar(const PackedM2xfpTensor &t, size_t row0,
                 size_t n_rows, size_t stride, float *out)
{
    decodeRowsWith<&decodeActivationRow>(t, row0, n_rows, stride, out);
}

void
scorePageScalar(const float *q, const float *rows, size_t stride,
                size_t n_rows, size_t hd, unsigned n_heads,
                unsigned group, double inv_sqrt, double *scores,
                size_t s_stride, double *smax)
{
    for (unsigned h = 0; h < n_heads; ++h) {
        const float *a = q + h * hd;
        const float *base = rows + (h / group) * hd;
        double *sh = scores + h * s_stride;
        double mx = -std::numeric_limits<double>::infinity();
        for (size_t r = 0; r < n_rows; ++r) {
            // Four independent chains: double-ulp reassociation vs
            // the oracle's single ascending chain, real ILP instead
            // of one latency-bound multiply-add at a time.
            const float *b = base + r * stride;
            double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
            size_t c = 0;
            for (; c + 4 <= hd; c += 4) {
                s0 += static_cast<double>(a[c]) * b[c];
                s1 += static_cast<double>(a[c + 1]) * b[c + 1];
                s2 += static_cast<double>(a[c + 2]) * b[c + 2];
                s3 += static_cast<double>(a[c + 3]) * b[c + 3];
            }
            for (; c < hd; ++c)
                s0 += static_cast<double>(a[c]) * b[c];
            double s = ((s0 + s1) + (s2 + s3)) * inv_sqrt;
            sh[r] = s;
            mx = std::max(mx, s);
        }
        smax[h] = mx;
    }
}

void
accumPageScalar(const double *w, size_t w_stride, const float *rows,
                size_t stride, size_t n_rows, size_t hd,
                unsigned n_heads, unsigned group, double *acc)
{
    for (unsigned h = 0; h < n_heads; ++h) {
        const double *wh = w + h * w_stride;
        const float *base = rows + (h / group) * hd;
        double *ar = acc + h * hd;
        // Channel-outer, row-inner: each channel's chain adds in
        // ascending-row order, exactly like the oracle's per-row
        // accumulation.
        for (size_t c = 0; c < hd; ++c) {
            double s = ar[c];
            for (size_t r = 0; r < n_rows; ++r)
                s += wh[r] * static_cast<double>(base[r * stride + c]);
            ar[c] = s;
        }
    }
}

const AttendKernels &
attendKernels(SimdIsa isa)
{
    static const AttendKernels scalar{
        &expWeightsScalar, &decodeRowsScalar, &scorePageScalar,
        &accumPageScalar,
        &decodeRowsWith<&decodeWeightRow>};
#ifdef M2X_HAVE_AVX2
    static const AttendKernels avx2{
        &expWeightsAvx2, &decodeRowsAvx2, &scorePageAvx2,
        &accumPageAvx2,
        &decodeRowsWith<&decodeWeightRowAvx2>};
    if (isa == SimdIsa::Avx2)
        return avx2;
#endif
#ifdef M2X_HAVE_AVX512
    static const AttendKernels avx512{
        &expWeightsAvx512, &decodeRowsAvx512, &scorePageAvx512,
        &accumPageAvx512,
        &decodeRowsWith<&decodeWeightRowAvx512>};
    if (isa == SimdIsa::Avx512)
        return avx512;
#endif
    (void)isa;
    return scalar;
}

} // namespace detail

namespace {

/** Query rows per packed-attend block (bounds the attend scratch). */
constexpr size_t attendBlock = 8;

/**
 * Process-wide peak of the per-lane attend scratch footprint. The
 * flash attend's bound — O(pageRows · nHeads + block · dModel),
 * context-length independent — is asserted against this by tests
 * and exported as the decode.attend_scratch_bytes gauge.
 */
std::atomic<size_t> g_attend_scratch_peak{0};

void
noteAttendScratch(size_t bytes)
{
    size_t cur = g_attend_scratch_peak.load(std::memory_order_relaxed);
    while (bytes > cur &&
           !g_attend_scratch_peak.compare_exchange_weak(
               cur, bytes, std::memory_order_relaxed)) {
    }
}

/** First visible cache row for a query whose last row is pos
 * (exclusive end @p valid = pos + 1) under sliding window @p w. */
inline size_t
windowStart(size_t valid, size_t w)
{
    return (w != 0 && valid > w) ? valid - w : 0;
}

/**
 * Prefetch the packed streams of rows [row0, row0 + n) into L2. At
 * long context the page walk is cold — the resident pages far
 * exceed the cache — so the flash attend hides the next page's
 * miss latency under the current page's decode+score work.
 */
inline void
prefetchPackedRows(const PackedM2xfpTensor &t, size_t row0, size_t n)
{
    size_t gpr = t.groupsPerRow();
    const uint8_t *p = t.groupElementBytes(row0, 0);
    size_t bytes = n * gpr * PackedM2xfpTensor::bytesPerGroupElems;
    for (size_t off = 0; off < bytes; off += 64)
        __builtin_prefetch(p + off, 0, 2);
    __builtin_prefetch(t.scaleStream().data() + row0 * gpr, 0, 2);
    __builtin_prefetch(t.metadataStream().data() + row0 * gpr, 0, 2);
}

} // anonymous namespace

size_t
attendScratchPeakBytes()
{
    return g_attend_scratch_peak.load(std::memory_order_relaxed);
}

void
resetAttendScratchPeak()
{
    g_attend_scratch_peak.store(0, std::memory_order_relaxed);
}

KvCache::KvCache(KvPageArena &arena, size_t n_layers)
    : arena_(&arena)
{
    m2x_assert(n_layers > 0, "KvCache needs layers > 0");
    layers_.resize(n_layers);
}

KvCache::KvCache(size_t n_layers, size_t d_model, KvCacheMode mode,
                 M2xfpConfig fmt, SimdIsa isa, PackedCodec codec)
    : owned_(std::make_unique<KvPageArena>(
          d_model, mode, fmt, isa,
          KvArenaConfig{.codec = codec})),
      arena_(owned_.get())
{
    m2x_assert(n_layers > 0 && d_model > 0,
               "KvCache needs layers > 0 and d_model > 0 (got "
               "%zu, %zu)", n_layers, d_model);
    layers_.resize(n_layers);
}

KvCache::KvCache(KvCache &&o) noexcept
    : owned_(std::move(o.owned_)), arena_(o.arena_),
      layers_(std::move(o.layers_))
{
    // The moved-from cache keeps its arena pointer but the vector
    // move left it with no layers, so its destructor frees nothing.
    o.layers_.clear();
}

KvCache::~KvCache()
{
    release();
}

void
KvCache::release()
{
    for (Layer &l : layers_) {
        for (KvPageId id : l.k)
            if (id != kvInvalidPage)
                arena_->freePage(id);
        for (KvPageId id : l.v)
            if (id != kvInvalidPage)
                arena_->freePage(id);
        l.k.clear();
        l.v.clear();
        l.rows = 0;
    }
}

void
KvCache::releaseBefore(size_t row)
{
    size_t pr = arena_->pageRows();
    size_t n_pages = row / pr; // pages holding only rows < row
    for (Layer &l : layers_) {
        size_t lim = std::min(n_pages, l.k.size());
        for (size_t p = 0; p < lim; ++p) {
            if (l.k[p] != kvInvalidPage) {
                arena_->freePage(l.k[p]);
                l.k[p] = kvInvalidPage;
            }
            if (l.v[p] != kvInvalidPage) {
                arena_->freePage(l.v[p]);
                l.v[p] = kvInvalidPage;
            }
        }
    }
}

size_t
KvCache::pagesHeld() const
{
    size_t n = 0;
    for (const Layer &l : layers_) {
        for (KvPageId id : l.k)
            n += id != kvInvalidPage;
        for (KvPageId id : l.v)
            n += id != kvInvalidPage;
    }
    return n;
}

size_t
KvCache::pagesNeededFor(size_t n_rows) const
{
    size_t pr = arena_->pageRows();
    size_t rows = length();
    size_t per_stream = KvPageArena::pagesForRows(rows + n_rows, pr) -
                        KvPageArena::pagesForRows(rows, pr);
    return 2 * layers_.size() * per_stream;
}

void
KvCache::appendStream(std::vector<KvPageId> &table, size_t rows_used,
                      const float *rows, size_t n, ThreadPool *pool)
{
    size_t pr = arena_->pageRows();
    size_t d = arena_->dModel();
    while (n > 0) {
        if (rows_used == table.size() * pr) {
            // No pages yet, or the tail page is exactly full: claim
            // a fresh one before the next row lands.
            KvPageId id = arena_->allocPage();
            m2x_assert(id != kvInvalidPage,
                       "KV page arena exhausted (%zu pages, all "
                       "live) — admit fewer sequences or evict "
                       "before appending",
                       arena_->capacityPages());
            table.push_back(id);
        }
        size_t tail_used = rows_used % pr;
        size_t take = std::min(pr - tail_used, n);
        arena_->appendRows(table.back(), rows, take, pool);
        rows += take * d;
        rows_used += take;
        n -= take;
    }
}

void
KvCache::append(size_t layer, const float *k_rows,
                const float *v_rows, size_t n, ThreadPool *pool)
{
    m2x_assert(layer < layers_.size(), "layer %zu out of %zu", layer,
               layers_.size());
    Layer &l = layers_[layer];
    if (n == 0)
        return;
    appendStream(l.k, l.rows, k_rows, n, pool);
    appendStream(l.v, l.rows, v_rows, n, pool);
    l.rows += n;
}

size_t
KvCache::totalBytes() const
{
    size_t bytes = 0;
    size_t d = arena_->dModel();
    size_t row_packed =
        arena_->groupsPerRow() *
        (packedCodecInfo(arena_->codec()).bytesPerGroupElems + 2);
    for (const Layer &l : layers_) {
        if (mode() == KvCacheMode::Fp32)
            bytes += 2 * l.rows * d * sizeof(float);
        else
            bytes += 2 * l.rows * row_packed;
    }
    return bytes;
}

void
KvCache::attend(size_t layer, const float *q, size_t n_rows,
                size_t pos0, unsigned n_heads, float *ctx,
                ThreadPool *pool, unsigned n_kv_heads,
                size_t window) const
{
    m2x_assert(layer < layers_.size(), "layer %zu out of %zu", layer,
               layers_.size());
    if (n_kv_heads == 0)
        n_kv_heads = n_heads;
    m2x_assert(n_heads > 0 && n_heads % n_kv_heads == 0,
               "%u query heads not grouped by %u kv heads", n_heads,
               n_kv_heads);
    m2x_assert(dModel() % n_kv_heads == 0,
               "kv width %zu not divisible into %u kv heads",
               dModel(), n_kv_heads);
    const Layer &l = layers_[layer];
    m2x_assert(pos0 + n_rows <= l.rows,
               "attend over rows [%zu, %zu) but layer %zu holds only "
               "%zu (append the chunk first)", pos0, pos0 + n_rows,
               layer, l.rows);
    if (n_rows == 0)
        return;
    ThreadPool &tp = pool ? *pool : ThreadPool::global();
    if (mode() == KvCacheMode::Fp32)
        attendFp32(l, q, n_rows, pos0, n_heads, n_kv_heads, window,
                   ctx, tp);
    else
        attendPacked(l, q, n_rows, pos0, n_heads, n_kv_heads, window,
                     ctx, tp);
}

/*
 * Fp32 mode: the bit-exactness oracle, now in streaming form. Heads
 * are fully independent and every (head, query) output replicates
 * the full forward's operation sequence — the scores the two-pass
 * reference would have stored are instead recomputed per pass
 * (identical float ops give identical bits), so pass A reproduces
 * the reference's float max, pass B its ascending-order double
 * normalizer, and pass C its float-weighted ascending-order value
 * chains. Three K passes instead of one buy an O(headDim) scratch
 * bound: this mode is the oracle and baseline, not the fast path.
 * The page table only changes where row j is fetched from (page
 * j / pageRows, local row j % pageRows), not one arithmetic
 * operation, so distributing heads over the pool cannot change a
 * single ULP.
 */
void
KvCache::attendFp32(const Layer &l, const float *q, size_t n_rows,
                    size_t pos0, unsigned n_heads,
                    unsigned n_kv_heads, size_t window, float *ctx,
                    ThreadPool &pool) const
{
    size_t kv_d = dModel();
    size_t hd = kv_d / n_kv_heads;
    size_t q_d = hd * n_heads;
    unsigned group = n_heads / n_kv_heads;
    float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(hd));
    detail::PagedKvView kview{arena_, l.k.data()};
    detail::PagedKvView vview{arena_, l.v.data()};

    pool.parallelFor(0, n_heads, 1, [&](size_t h0, size_t h1) {
        thread_local std::vector<double> acc;
        acc.resize(hd);
        noteAttendScratch(hd * sizeof(double));
        for (size_t h = h0; h < h1; ++h) {
            size_t off = h * hd;
            size_t kv_off = (h / group) * hd;
            for (size_t i = 0; i < n_rows; ++i) {
                const float *qr = q + i * q_d + off;
                size_t valid = pos0 + i + 1;
                size_t j0 = windowStart(valid, window);
                auto score = [&](size_t j) {
                    double dot = 0.0;
                    const float *kr = kview.fp32Row(j) + kv_off;
                    for (size_t c = 0; c < hd; ++c)
                        dot += static_cast<double>(qr[c]) * kr[c];
                    return static_cast<float>(dot) * inv_sqrt;
                };
                // Pass A: the reference softmax's float max.
                float mx = score(j0);
                for (size_t j = j0 + 1; j < valid; ++j)
                    mx = std::max(mx, score(j));
                // Pass B: its double normalizer, ascending order.
                double z = 0.0;
                for (size_t j = j0; j < valid; ++j)
                    z += std::exp(score(j) - mx);
                float inv_z = static_cast<float>(1.0 / z);
                // Pass C: float-weighted value chains, one ascending
                // double chain per channel exactly like the oracle.
                std::fill(acc.begin(), acc.end(), 0.0);
                for (size_t j = j0; j < valid; ++j) {
                    float p = std::exp(score(j) - mx) * inv_z;
                    const float *vr = vview.fp32Row(j) + kv_off;
                    for (size_t c = 0; c < hd; ++c)
                        acc[c] += static_cast<double>(p) * vr[c];
                }
                for (size_t c = 0; c < hd; ++c)
                    ctx[i * q_d + off + c] =
                        static_cast<float>(acc[c]);
            }
        }
    });
}

/*
 * Packed mode: the production flash kernel. K/V pages stream through
 * a bounded working set — each page is LUT-decoded once per query
 * block (the arena page is the natural KV block) and reused across
 * every query row and head — while per-(query, head) running
 * statistics advance with the online-softmax recurrence:
 *
 *   m' = max(m, max_r s_r)          page-local score max
 *   corr = exp(m - m')              rescale on a new max
 *   l' = l * corr + sum_r exp(s_r - m')
 *   acc' = acc * corr + sum_r exp(s_r - m') * v_r
 *
 * and the context row is acc / l after the last page. No [S, T] (or
 * even [T]) score buffer ever exists: scratch is two decoded pages
 * plus O(pageRows · nHeads) score/weight slabs plus the running
 * m/l/acc — independent of context length (attendScratchPeakBytes
 * tracks the peak). Scores, weights, and statistics all stay in
 * double; the vector tiers' polynomial float exp is the one source
 * of divergence from the scalar tier, well inside the packed model
 * tolerance (1e-5). Row decode yields exactly the bytes the
 * one-shot packer would have produced for absolute row j, as
 * before.
 */
void
KvCache::attendPacked(const Layer &l, const float *q, size_t n_rows,
                      size_t pos0, unsigned n_heads,
                      unsigned n_kv_heads, size_t window, float *ctx,
                      ThreadPool &pool) const
{
    telemetry::TraceSpan span("decode.attend.flash");
    if (span.active()) {
        span.arg("rows", n_rows);
        span.arg("ctx_len", pos0 + n_rows);
        span.arg("kv_heads", n_kv_heads);
        if (window != 0)
            span.arg("window", window);
    }

    size_t kv_d = dModel();
    size_t hd = kv_d / n_kv_heads;
    size_t q_d = hd * n_heads;
    unsigned group = n_heads / n_kv_heads;
    float inv_sqrt_f = 1.0f / std::sqrt(static_cast<float>(hd));
    double inv_sqrt = static_cast<double>(inv_sqrt_f);
    size_t pr = arena_->pageRows();
    size_t padded_d = arena_->groupsPerRow() *
                      packedCodecInfo(arena_->codec()).groupSize;
    const detail::AttendKernels &kern =
        detail::attendKernels(simdIsa());
    // The codec seam: only the page decode is format-sensitive —
    // the ISA tier's batch decode of the pages' decode family
    // (decodeFamily), else the generic traits kernel;
    // scores/softmax/value accumulation are codec-agnostic.
    const CodecTraits &tr = CodecTraits::get(arena_->codec());
    detail::DecodeRowsFn decode_rows = &codecDecodeRows;
    switch (decodeFamily(tr.actKind, *tr.info)) {
    case DecodeFamily::ElemEm:
        decode_rows = kern.decodeRows;
        break;
    case DecodeFamily::SgEm:
        decode_rows = kern.decodeSgEmRows;
        break;
    case DecodeFamily::Generic:
        break;
    }
    detail::PagedKvView kview{arena_, l.k.data()};
    detail::PagedKvView vview{arena_, l.v.data()};
    size_t n_blocks = ceilDiv(n_rows, attendBlock);
    constexpr double neg_inf =
        -std::numeric_limits<double>::infinity();

    pool.parallelFor(0, n_blocks, 1, [&](size_t b0, size_t b1) {
        thread_local std::vector<float> kbuf, vbuf;
        thread_local std::vector<double> sbuf, pbuf, pmax;
        thread_local std::vector<double> mrun, lrun, acc;
        kbuf.resize(pr * padded_d);
        vbuf.resize(pr * padded_d);
        sbuf.resize(n_heads * pr);
        pbuf.resize(n_heads * pr);
        pmax.resize(n_heads);
        mrun.resize(attendBlock * n_heads);
        lrun.resize(attendBlock * n_heads);
        acc.resize(attendBlock * q_d);
        noteAttendScratch(
            2 * pr * padded_d * sizeof(float) +
            (2 * n_heads * pr + n_heads +
             2 * attendBlock * n_heads + attendBlock * q_d) *
                sizeof(double));

        for (size_t blk = b0; blk < b1; ++blk) {
            size_t i0 = blk * attendBlock;
            size_t bn = std::min(attendBlock, n_rows - i0);
            // Rows visible to the block's last query; the first
            // query's window start bounds the page walk below.
            size_t len = pos0 + i0 + bn;
            size_t j0_min = windowStart(pos0 + i0 + 1, window);

            std::fill_n(mrun.begin(), bn * n_heads, neg_inf);
            std::fill_n(lrun.begin(), bn * n_heads, 0.0);
            std::fill_n(acc.begin(), bn * q_d, 0.0);

            for (size_t pg = j0_min / pr; pg * pr < len; ++pg) {
                size_t lo = std::max(pg * pr, j0_min);
                size_t hi = std::min((pg + 1) * pr, len);
                // Decode the page's visible K and V rows once —
                // one page-table resolve per stream (the rows of a
                // logical page share one arena tensor), one batch
                // decode call; every query row and head below
                // reuses the slabs.
                size_t local_lo;
                const PackedM2xfpTensor &kp =
                    kview.packedOf(lo, local_lo);
                const PackedM2xfpTensor &vp =
                    vview.packedOf(lo, local_lo);
                // Issue the next page's stream prefetches first so
                // the misses resolve under this page's work.
                size_t nx_lo = (pg + 1) * pr;
                size_t nx_hi = std::min(nx_lo + pr, len);
                if (nx_lo < nx_hi) {
                    size_t nx_local = 0;
                    prefetchPackedRows(
                        kview.packedOf(nx_lo, nx_local), nx_local,
                        nx_hi - nx_lo);
                    prefetchPackedRows(
                        vview.packedOf(nx_lo, nx_local), nx_local,
                        nx_hi - nx_lo);
                }
                decode_rows(
                    kp, local_lo, hi - lo, padded_d,
                    kbuf.data() + (lo - pg * pr) * padded_d);
                decode_rows(
                    vp, local_lo, hi - lo, padded_d,
                    vbuf.data() + (lo - pg * pr) * padded_d);

                for (size_t i = 0; i < bn; ++i) {
                    size_t valid = pos0 + i0 + i + 1;
                    size_t vlo =
                        std::max(lo, windowStart(valid, window));
                    size_t vhi = std::min(hi, valid);
                    if (vlo >= vhi)
                        continue;
                    size_t nv = vhi - vlo;
                    const float *qi = q + (i0 + i) * q_d;

                    // Score pass: one page-granular call computes
                    // every (head, row) dot head-major (so the exp
                    // below runs over a contiguous run per head)
                    // plus each head's page max.
                    kern.scorePage(
                        qi,
                        kbuf.data() + (vlo - pg * pr) * padded_d,
                        padded_d, nv, hd, n_heads, group, inv_sqrt,
                        sbuf.data(), pr, pmax.data());

                    // Online-softmax update per head. A page that
                    // does not raise the head's running max leaves
                    // the accumulator untouched (corr == exp(0) ==
                    // 1 exactly), so the rescale — and its libm exp
                    // — is skipped in the steady state.
                    double *mi = mrun.data() + i * n_heads;
                    double *li = lrun.data() + i * n_heads;
                    for (unsigned h = 0; h < n_heads; ++h) {
                        double m_new = mi[h];
                        double corr = 1.0;
                        if (pmax[h] > m_new) {
                            m_new = pmax[h];
                            corr = std::exp(mi[h] - m_new);
                        }
                        kern.expWeights(sbuf.data() + h * pr, m_new,
                                        nv, pbuf.data() + h * pr);
                        double sum = 0.0;
                        const double *ph = pbuf.data() + h * pr;
                        for (size_t r = 0; r < nv; ++r)
                            sum += ph[r];
                        li[h] = li[h] * corr + sum;
                        mi[h] = m_new;
                        if (corr != 1.0) {
                            double *ah = acc.data() + i * q_d +
                                         h * hd;
                            for (size_t c = 0; c < hd; ++c)
                                ah[c] *= corr;
                        }
                    }

                    // Value pass: one page-granular accumulation
                    // over the decoded V slab, reading the weights
                    // head-major exactly as expWeights wrote them.
                    kern.accumPage(
                        pbuf.data(), pr,
                        vbuf.data() + (vlo - pg * pr) * padded_d,
                        padded_d, nv, hd, n_heads, group,
                        acc.data() + i * q_d);
                }
            }

            // Normalize: ctx = acc / l.
            for (size_t i = 0; i < bn; ++i) {
                for (unsigned h = 0; h < n_heads; ++h) {
                    double inv_l =
                        1.0 / lrun[i * n_heads + h];
                    const double *ah =
                        acc.data() + i * q_d + h * hd;
                    float *out = ctx + (i0 + i) * q_d + h * hd;
                    for (size_t c = 0; c < hd; ++c)
                        out[c] =
                            static_cast<float>(ah[c] * inv_l);
                }
            }
        }
    });
}

} // namespace runtime
} // namespace m2x

/**
 * @file
 * Per-sequence attention KV cache for the autoregressive decode
 * runtime, with the paper's packed M2XFP streams as the resident
 * representation — backed by a shared KvPageArena since the paged
 * refactor, so many sequences draw from (and return to) one fixed
 * page pool.
 *
 * One KvCache holds the K and V rows of every layer of ONE sequence,
 * as per-layer page tables into the arena. Rows are appended as they
 * are produced (prefill chunks, then one row per decode step) and
 * never rewritten; an append fills the tail page and claims fresh
 * pages from the arena as it crosses page boundaries. Two storage
 * modes, decided by the arena:
 *
 *  - KvCacheMode::Fp32 — rows stay dense fp32 (32 bits/element).
 *    attend() streams the visible rows in three exact passes (max,
 *    normalizer, weighted value) that replicate the full-forward
 *    causal attention operation for operation — the same float/
 *    double op sequence as model::attentionSoftmax, just without
 *    ever materializing the score vector — so prefill + stepwise
 *    decode against an Fp32 cache still reproduces forwardLogits()
 *    bit-exactly while the attend scratch stays O(headDim). This
 *    mode is the correctness oracle and the memory/throughput
 *    baseline.
 *
 *  - KvCacheMode::Packed — rows are encoded on append through the arena
 *    codec's own encoder into the pages' packed streams (~4.5
 *    bits/element for elem_em). Because every row encodes
 *    independently, a page's streams are byte-identical to the
 *    corresponding row slice of the one-shot packer — the append
 *    exactness contract is page-boundary agnostic exactly as it is
 *    chunk-boundary agnostic. attend() runs the flash-style blocked
 *    online-softmax kernel: K/V pages stream through a bounded working
 *    set (each page LUT-decoded once per query block and reused across
 *    all heads), per-head running max m / normalizer l / value
 *    accumulator acc advance with the standard rescale-on-new-max
 *    recurrence, and no [S, T] (or even [T]) score buffer ever exists —
 *    scratch is O(pageRows · nHeads), independent of context length.
 *    Logits agree with a forwardLogits() reference that quantizes K/V
 *    via setKvQuantizers to the established model tolerance (1e-5).
 *
 * Causality comes from row order: the cache row appended for
 * position p is row p (page tables are walked in ascending order),
 * and the query at position p attends to rows 0..p — or, with a
 * sliding window W, to rows (p-W, p]. Chunk and page boundaries are
 * both invisible to the math.
 *
 * Grouped-query attention: the cache stores n_kv_heads head slices
 * per row (dModel() == n_kv_heads * headDim), and attend() maps
 * query head h onto K/V head h / (n_heads / n_kv_heads). Equal head
 * counts reproduce classic MHA bit-exactly.
 *
 * release() returns every page to the arena (sequence retirement or
 * scheduler eviction); a later re-prefill of the same token history
 * reproduces the exact same cache bytes, which is what makes
 * eviction recoverable (see serving.hh and docs/SERVING.md).
 */

#ifndef M2X_RUNTIME_KV_CACHE_HH__
#define M2X_RUNTIME_KV_CACHE_HH__

#include <memory>
#include <vector>

#include "core/m2xfp.hh"
#include "core/m2xfp_packed.hh"
#include "runtime/kv_page_arena.hh"
#include "runtime/simd.hh"
#include "runtime/thread_pool.hh"

namespace m2x {
namespace runtime {

/** The K/V state of one sequence across all layers. */
class KvCache
{
  public:
    /**
     * A cache drawing from a shared @p arena (the serving shape).
     * The arena must outlive the cache.
     *
     * @param n_layers transformer blocks (one K + one V per block)
     */
    KvCache(KvPageArena &arena, size_t n_layers);

    /**
     * Convenience: a cache over its own private elastic arena (the
     * standalone shape — tests, single-sequence tools).
     *
     * @param d_model row width; must divide evenly into the heads
     *        at attend() time
     * @param mode    resident representation
     * @param fmt     packed-mode codec config (paper layout only)
     * @param isa     kernel tier for packed-mode encode/decode
     * @param codec   packed-mode stream codec (the format axis)
     */
    KvCache(size_t n_layers, size_t d_model, KvCacheMode mode,
            M2xfpConfig fmt = {}, SimdIsa isa = activeSimdIsa(),
            PackedCodec codec = PackedCodec::ElemEm);

    ~KvCache();

    KvCache(const KvCache &) = delete;
    KvCache &operator=(const KvCache &) = delete;
    KvCache(KvCache &&o) noexcept;
    KvCache &operator=(KvCache &&) = delete;

    KvCacheMode mode() const { return arena_->mode(); }
    size_t layers() const { return layers_.size(); }
    size_t dModel() const { return arena_->dModel(); }
    SimdIsa simdIsa() const { return arena_->simdIsa(); }
    const KvPageArena &arena() const { return *arena_; }

    /**
     * Cached rows (== tokens seen) — the same for every layer once a
     * chunk has been appended to all of them.
     */
    size_t length() const
    {
        return layers_.empty() ? 0 : layers_[0].rows;
    }

    /**
     * Append @p n contiguous row-major rows of K and V (each
     * dModel() floats) to @p layer, claiming arena pages as the
     * tail crosses page boundaries. Packed mode encodes them through
     * the arena codec's encoder on the arena's ISA tier (the SIMD
     * Elem-EM encoder for elem_em, the SIMD Sg-EM encoder for
     * sg_em, the functional row encoders for elem_ee and m2_nvfp4)
     * — multi-row appends (prefill chunks) distribute the encodes
     * over @p pool (null = the global pool), single rows stay
     * inline. Exhaustion of a bounded arena is a hard error here:
     * schedulers must check pagesNeededFor() against the arena's
     * free count first (see serving.cc).
     */
    void append(size_t layer, const float *k_rows,
                const float *v_rows, size_t n,
                ThreadPool *pool = nullptr);

    /**
     * Causal attention of @p n_rows query rows (row-major,
     * n_heads * headDim floats each, first row at absolute position
     * @p pos0) against this cache's @p layer, writing the context
     * rows to @p ctx (same shape as q). The chunk's own K/V rows
     * must already be appended: query row i attends cache rows
     * [0, pos0 + i], narrowed to the trailing @p window positions
     * when a sliding window is set.
     *
     * @p n_kv_heads is the grouped-query K/V head count (0 =
     * n_heads, classic MHA); the cache rows carry n_kv_heads head
     * slices (dModel() == n_kv_heads * headDim) while q/ctx carry
     * n_heads. @p window == 0 means full causal attention.
     *
     * Fp32 mode streams the visible rows in three exact passes
     * (bit-exact to the full forward) and parallelizes over heads;
     * Packed mode runs the flash-style online-softmax page walker
     * and parallelizes over query blocks. Both resolve row j through
     * the page table (j / pageRows, j % pageRows) and keep per-lane
     * scratch bounded independent of context length (see
     * attendScratchPeakBytes). @p pool follows the runtime
     * convention (null = global pool); per-lane scratch is
     * thread-local, so steady-state decode allocates nothing.
     */
    void attend(size_t layer, const float *q, size_t n_rows,
                size_t pos0, unsigned n_heads, float *ctx,
                ThreadPool *pool = nullptr, unsigned n_kv_heads = 0,
                size_t window = 0) const;

    /**
     * Return to the arena every page that lies wholly below cache
     * row @p row, in every layer (sliding-window retirement: once
     * all queries' windows have moved past a page it can never be
     * attended again). Freed table slots keep a tombstone so
     * absolute row indexing — and the append tail — are unaffected.
     * Note that a later re-prefill after eviction replays the full
     * history, transiently re-claiming early pages; schedulers must
     * keep admission accounting on the full row count (see
     * docs/SERVING.md).
     */
    void releaseBefore(size_t row);

    /**
     * Bytes of cached K/V rows across layers (row-granular: the
     * bytes the rows actually occupy, not the page-granular arena
     * claim — see pagesHeld() for the latter). All three packed
     * streams in Packed mode, the dense rows in Fp32 mode.
     */
    size_t totalBytes() const;

    /** Resident K/V bytes per cached token (0 while empty). */
    double
    bytesPerToken() const
    {
        size_t len = length();
        return len == 0 ? 0.0
                        : static_cast<double>(totalBytes()) /
                              static_cast<double>(len);
    }

    /** Arena pages this sequence currently holds. */
    size_t pagesHeld() const;

    /**
     * Fresh arena pages appending @p n_rows more rows would claim
     * (across all layers and both streams) — what a scheduler checks
     * against the arena's free count before admitting or stepping.
     */
    size_t pagesNeededFor(size_t n_rows) const;

    /**
     * Return every page to the arena and reset to zero length (the
     * retirement/eviction path). The cache remains usable: a
     * re-prefill of the same token history rebuilds byte-identical
     * pages.
     */
    void release();

  private:
    struct Layer
    {
        size_t rows = 0;
        /** Page tables: k[j / pageRows] holds cache row j. */
        std::vector<KvPageId> k, v;
    };

    void appendStream(std::vector<KvPageId> &table, size_t rows_used,
                      const float *rows, size_t n, ThreadPool *pool);
    void attendFp32(const Layer &l, const float *q, size_t n_rows,
                    size_t pos0, unsigned n_heads,
                    unsigned n_kv_heads, size_t window, float *ctx,
                    ThreadPool &pool) const;
    void attendPacked(const Layer &l, const float *q, size_t n_rows,
                      size_t pos0, unsigned n_heads,
                      unsigned n_kv_heads, size_t window, float *ctx,
                      ThreadPool &pool) const;

    std::unique_ptr<KvPageArena> owned_; //!< standalone shape only
    KvPageArena *arena_;
    std::vector<Layer> layers_;
};

/**
 * @{ Peak per-lane attend scratch, in bytes, across every
 * KvCache::attend since the last reset (process-wide, any thread).
 * The flash attend's defining property is that this is bounded by
 * O(pageRows · nHeads + queryBlock · dModel) independent of context
 * length — tests assert it and ServingEngine exports it as the
 * decode.attend_scratch_bytes gauge: an O(context) score vector
 * per query row is the regression it guards against.
 */
size_t attendScratchPeakBytes();
void resetAttendScratchPeak();
/** @} */

} // namespace runtime
} // namespace m2x

#endif // M2X_RUNTIME_KV_CACHE_HH__

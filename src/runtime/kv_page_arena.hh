/**
 * @file
 * KvPageArena: the shared fixed-size-page allocator underneath every
 * KV cache of a serving engine.
 *
 * PR 5 gave each sequence its own growable packed streams; that shape
 * cannot serve sequences that are admitted and retired mid-flight,
 * because every retirement strands its high-water allocation inside
 * one sequence. The arena replaces the per-sequence tails with a
 * block allocator over fixed-size pages:
 *
 *  - A page holds up to pageRows() rows of ONE stream (the K or the
 *    V rows of one layer of one sequence). Packed mode stores a page
 *    as a small PackedM2xfpTensor (the three M2XFP byte streams,
 *    ~4.5 bits/element); Fp32 mode as a dense float block.
 *  - allocPage()/freePage() run a free-list: a freed page keeps its
 *    stream storage (capacity retained, rows cleared), so sequence
 *    churn re-fills recycled pages without growing the arena —
 *    highWaterPages() is the proof, it plateaus at the peak working
 *    set no matter how many sequences come and go.
 *  - Appends are page-granular and row-independent: the Elem-EM
 *    encoder packs each row on its own, so a page's packed bytes are
 *    byte-identical to the corresponding row slice of the one-shot
 *    packer (the PR 5 exactness contract survives paging), and fp32
 *    pages hold exactly the rows the bit-exact oracle reads.
 *
 * Capacity is fixed when cfg.capacityPages > 0 — allocPage() returns
 * kvInvalidPage on exhaustion, which the serving scheduler turns into
 * admission stalls and preemption — or elastic (capacityPages == 0)
 * for a standalone KvCache (tests, single-sequence oracles), where
 * the arena grows on demand but still recycles through the free
 * list.
 *
 * Thread-safety: allocPage/freePage and the accounting accessors are
 * safe from concurrent lanes (the decode step fans sequences out over
 * the pool and each lane appends to its own caches). Page *contents*
 * are single-owner: only the sequence holding a page id may append to
 * it, and readers may only walk ids they obtained before the current
 * parallel section (or allocated themselves). Page addresses are
 * stable for the arena's lifetime — storage lives behind a fixed
 * directory of lazily materialized chunks, never moved by growth.
 */

#ifndef M2X_RUNTIME_KV_PAGE_ARENA_HH__
#define M2X_RUNTIME_KV_PAGE_ARENA_HH__

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/m2xfp.hh"
#include "core/m2xfp_packed.hh"
#include "runtime/simd.hh"

namespace m2x {
namespace runtime {

class ThreadPool;

/** Resident representation of the cached K/V rows. */
enum class KvCacheMode
{
    Fp32,   //!< dense fp32 rows: bit-exact oracle + baseline
    Packed, //!< packed M2XFP streams (~4.5 bits/element)
};

/** Display name ("fp32" / "packed"). */
const char *kvCacheModeName(KvCacheMode mode);

/** Index of one page inside its arena. */
using KvPageId = uint32_t;

/** allocPage() result when a bounded arena is exhausted. */
constexpr KvPageId kvInvalidPage = 0xffffffffu;

/** Arena geometry knobs. */
struct KvArenaConfig
{
    /** Rows per page (per layer per K/V stream). */
    size_t pageRows = 16;
    /**
     * Total pages. > 0 = fixed capacity (serving: exhaustion drives
     * admission stalls and preemption); 0 = elastic (standalone
     * KvCache: grows on demand, still free-list recycled).
     */
    size_t capacityPages = 0;
    /**
     * Packed-mode stream codec. ElemEm keeps the per-ISA SIMD row
     * encoder (byte-exact legacy behavior); other codecs append
     * through their functional row encoders via the codec seam.
     */
    PackedCodec codec = PackedCodec::ElemEm;
};

/** The shared page pool all KvCaches of one session draw from. */
class KvPageArena
{
  public:
    /**
     * @param d_model row width of every page
     * @param mode    resident representation of the rows
     * @param fmt     packed-mode codec config (paper layout only)
     * @param isa     kernel tier for packed-mode encode
     * @param cfg     page geometry + capacity
     */
    KvPageArena(size_t d_model, KvCacheMode mode, M2xfpConfig fmt = {},
                SimdIsa isa = activeSimdIsa(), KvArenaConfig cfg = {});

    KvPageArena(const KvPageArena &) = delete;
    KvPageArena &operator=(const KvPageArena &) = delete;

    KvCacheMode mode() const { return mode_; }
    size_t dModel() const { return dModel_; }
    SimdIsa simdIsa() const { return isa_; }
    size_t pageRows() const { return pageRows_; }
    size_t groupsPerRow() const { return groupsPerRow_; }

    /** Packed-mode stream codec of every page. */
    PackedCodec codec() const { return codec_; }

    /** Fixed page budget; 0 = elastic. */
    size_t capacityPages() const { return capacityPages_; }

    /**
     * Claim a page (recycled from the free list when possible).
     * Returns kvInvalidPage when a bounded arena is exhausted.
     */
    KvPageId allocPage();

    /**
     * Return a page to the free list. Its rows are cleared but its
     * stream storage is retained for the next owner.
     */
    void freePage(KvPageId id);

    /** @{ Occupancy accounting (safe from concurrent lanes). */
    size_t livePages() const;
    size_t freePages() const; //!< bounded: capacity - live; else SIZE_MAX
    size_t highWaterPages() const; //!< page slots ever materialized
    /**
     * live / capacity for a bounded arena; live / high-water for an
     * elastic one (0 while nothing is materialized).
     */
    double occupancy() const;
    /** @} */

    /** Resident bytes of one full page (one stream, pageRows rows). */
    size_t pageBytes() const;

    /** Resident bytes of all materialized pages (used or free). */
    size_t residentBytes() const { return highWaterPages() * pageBytes(); }

    /**
     * Bytes one full page would occupy if its rows were dense fp32 —
     * the denominator of the packed-arena concurrency multiplier.
     */
    size_t fp32PageBytes() const
    {
        return pageRows_ * dModel_ * sizeof(float);
    }

    /**
     * Encode-and-append @p n row-major rows (dModel() floats each)
     * onto page @p id. The caller owns the page and must leave room:
     * pageUsed(id) + n <= pageRows(). Packed mode runs the fast-path
     * Elem-EM encoder on this arena's ISA tier; multi-row appends
     * distribute over @p pool (null = the global pool).
     */
    void appendRows(KvPageId id, const float *rows, size_t n,
                    ThreadPool *pool = nullptr);

    /** Rows currently stored in page @p id. */
    size_t pageUsed(KvPageId id) const { return page(id).used; }

    /** Dense rows of an Fp32-mode page (row-major, pageRows max). */
    const float *fp32Rows(KvPageId id) const;

    /** Packed streams of a Packed-mode page (rows() == pageUsed). */
    const PackedM2xfpTensor &packedPage(KvPageId id) const;

    /** Pages needed to store @p rows rows of one stream. */
    static size_t pagesForRows(size_t rows, size_t page_rows)
    {
        return (rows + page_rows - 1) / page_rows;
    }

  private:
    /**
     * One page slot. `used` counts appended rows; exactly one of the
     * two storages is populated, per the arena mode.
     */
    struct Page
    {
        size_t used = 0;
        std::vector<float> f32;
        PackedM2xfpTensor packed;
    };

    /**
     * Pages live in fixed-size chunks behind a directory sized at
     * construction, so growth never moves existing pages and readers
     * can walk page ids without taking the allocator mutex.
     */
    static constexpr size_t chunkPages = 64;

    Page &page(KvPageId id);
    const Page &page(KvPageId id) const;

    KvCacheMode mode_;
    size_t dModel_;
    SimdIsa isa_;
    size_t pageRows_;
    size_t capacityPages_;
    PackedCodec codec_;
    size_t groupsPerRow_;
    ElemEmQuantizer actQ_; //!< packed-mode elem_em row codec

    mutable std::mutex mu_;
    std::vector<std::unique_ptr<Page[]>> chunks_; //!< fixed-size dir
    std::vector<KvPageId> freeList_;
    /**
     * == highWaterPages(). Written only under mu_, but page() reads
     * it lock-free to check an id: allocPage() publishes each new
     * page with a release store after constructing it, page() pairs
     * it with an acquire load.
     */
    std::atomic<size_t> nextId_{0};
    size_t live_ = 0;
};

} // namespace runtime
} // namespace m2x

#endif // M2X_RUNTIME_KV_PAGE_ARENA_HH__

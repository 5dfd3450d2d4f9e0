#include "runtime/kv_page_arena.hh"

#include <cstring>
#include <limits>

#include "util/bits.hh"
#include "util/logging.hh"

namespace m2x {
namespace runtime {

namespace {

/**
 * Elastic arenas still need a fixed directory (page addresses must
 * never move), so they get a generous hard ceiling: 2^18 pages is
 * ~4M cached rows per stream at the default geometry, far beyond any
 * in-process session, for 32 KiB of directory.
 */
constexpr size_t elasticMaxPages = size_t{1} << 18;

} // anonymous namespace

const char *
kvCacheModeName(KvCacheMode mode)
{
    return mode == KvCacheMode::Fp32 ? "fp32" : "packed";
}

KvPageArena::KvPageArena(size_t d_model, KvCacheMode mode,
                         M2xfpConfig fmt, SimdIsa isa,
                         KvArenaConfig cfg)
    : mode_(mode), dModel_(d_model), isa_(isa),
      pageRows_(cfg.pageRows), capacityPages_(cfg.capacityPages),
      codec_(cfg.codec),
      groupsPerRow_(ceilDiv(d_model,
                            size_t{packedCodecInfo(cfg.codec).groupSize})),
      actQ_(fmt.activationConfig())
{
    m2x_assert(d_model > 0, "KvPageArena needs d_model > 0");
    m2x_assert(pageRows_ > 0, "KvPageArena needs pageRows > 0");
    m2x_assert(simdIsaAvailable(isa),
               "KvPageArena: ISA tier '%s' is not available on this "
               "machine", simdIsaName(isa));
    size_t max_pages =
        capacityPages_ ? capacityPages_ : elasticMaxPages;
    m2x_assert(max_pages < kvInvalidPage,
               "KvPageArena: %zu pages exceeds the page-id space",
               max_pages);
    chunks_.resize(ceilDiv(max_pages, chunkPages));
}

KvPageArena::Page &
KvPageArena::page(KvPageId id)
{
    size_t allocated = nextId_.load(std::memory_order_acquire);
    m2x_assert(id < allocated,
               "KvPageArena: page %u was never allocated", id);
    Page *chunk = chunks_[id / chunkPages].get();
    return chunk[id % chunkPages];
}

const KvPageArena::Page &
KvPageArena::page(KvPageId id) const
{
    return const_cast<KvPageArena *>(this)->page(id);
}

KvPageId
KvPageArena::allocPage()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (!freeList_.empty()) {
        KvPageId id = freeList_.back();
        freeList_.pop_back();
        ++live_;
        return id;
    }
    size_t max_pages =
        capacityPages_ ? capacityPages_ : elasticMaxPages;
    size_t next = nextId_.load(std::memory_order_relaxed);
    if (next >= max_pages)
        return kvInvalidPage;
    KvPageId id = static_cast<KvPageId>(next);
    auto &chunk = chunks_[id / chunkPages];
    if (!chunk)
        chunk = std::make_unique<Page[]>(chunkPages);
    Page &p = chunk[id % chunkPages];
    if (mode_ == KvCacheMode::Fp32) {
        p.f32.resize(pageRows_ * dModel_);
    } else if (codec_ == PackedCodec::ElemEm) {
        p.packed = PackedM2xfpTensor::emptyActivations(dModel_, actQ_);
        p.packed.reserveActivationRows(pageRows_);
    } else {
        p.packed =
            PackedM2xfpTensor::emptyActivationsCodec(dModel_, codec_);
        p.packed.reserveActivationRows(pageRows_);
    }
    nextId_.store(next + 1, std::memory_order_release);
    ++live_;
    return id;
}

void
KvPageArena::freePage(KvPageId id)
{
    std::lock_guard<std::mutex> lock(mu_);
    Page &p = page(id);
    m2x_assert(live_ > 0, "KvPageArena: freePage with no live pages");
    p.used = 0;
    if (mode_ == KvCacheMode::Packed)
        p.packed.clearActivationRows();
    freeList_.push_back(id);
    --live_;
}

size_t
KvPageArena::livePages() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return live_;
}

size_t
KvPageArena::freePages() const
{
    std::lock_guard<std::mutex> lock(mu_);
    if (!capacityPages_)
        return std::numeric_limits<size_t>::max();
    return capacityPages_ - live_;
}

size_t
KvPageArena::highWaterPages() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return nextId_.load(std::memory_order_relaxed);
}

double
KvPageArena::occupancy() const
{
    std::lock_guard<std::mutex> lock(mu_);
    size_t denom = capacityPages_
                       ? capacityPages_
                       : nextId_.load(std::memory_order_relaxed);
    return denom == 0 ? 0.0
                      : static_cast<double>(live_) /
                            static_cast<double>(denom);
}

size_t
KvPageArena::pageBytes() const
{
    if (mode_ == KvCacheMode::Fp32)
        return fp32PageBytes();
    // Per row and group: the codec's element bytes + 1 scale byte +
    // 1 metadata byte.
    return pageRows_ * groupsPerRow_ *
           (packedCodecInfo(codec_).bytesPerGroupElems + 2);
}

void
KvPageArena::appendRows(KvPageId id, const float *rows, size_t n,
                        ThreadPool *pool)
{
    if (n == 0)
        return;
    Page &p = page(id);
    m2x_assert(p.used + n <= pageRows_,
               "KvPageArena: append of %zu rows overflows page %u "
               "(%zu/%zu used)", n, id, p.used, pageRows_);
    if (mode_ == KvCacheMode::Fp32) {
        std::memcpy(p.f32.data() + p.used * dModel_, rows,
                    n * dModel_ * sizeof(float));
    } else if (codec_ == PackedCodec::ElemEm) {
        p.packed.appendActivationRows(rows, n, actQ_, isa_, pool);
    } else {
        p.packed.appendActivationRowsCodec(rows, n, isa_, pool);
    }
    p.used += n;
}

const float *
KvPageArena::fp32Rows(KvPageId id) const
{
    m2x_assert(mode_ == KvCacheMode::Fp32,
               "fp32Rows on a packed-mode arena");
    return page(id).f32.data();
}

const PackedM2xfpTensor &
KvPageArena::packedPage(KvPageId id) const
{
    m2x_assert(mode_ == KvCacheMode::Packed,
               "packedPage on an fp32-mode arena");
    return page(id).packed;
}

} // namespace runtime
} // namespace m2x

#include "replay.hh"

#include <algorithm>
#include <memory>
#include <span>

#include "model/transformer.hh"
#include "runtime/inference_session.hh"
#include "runtime/kv_cache.hh"
#include "runtime/kv_page_arena.hh"
#include "runtime/telemetry.hh"
#include "util/logging.hh"

namespace servebench {

using m2x::Matrix;
using m2x::runtime::CacheAttendBackend;
using m2x::runtime::KvCache;
using m2x::runtime::KvCacheMode;
using m2x::runtime::KvPageArena;
using m2x::runtime::LayerStats;
using m2x::runtime::ThreadPool;
namespace telemetry = m2x::runtime::telemetry;

namespace {

/**
 * Times every attend() of the wrapped CacheAttendBackend and adds
 * the K/V bytes the call must read, computed from its shapes: each
 * query row reads its whole visible context of packed K and V rows.
 */
class TimedAttendBackend : public m2x::model::AttentionBackend
{
  public:
    TimedAttendBackend(ThreadPool *pool, double kv_bytes_per_elem)
        : inner_(pool, nullptr), kvBytesPerElem_(kv_bytes_per_elem)
    {}

    void beginChunk(KvCache &cache) { inner_.beginChunk(cache); }

    void
    beginRows(std::span<KvCache *const> row_caches)
    {
        inner_.beginRows(row_caches);
    }

    Matrix
    attend(size_t layer, const Matrix &q, const Matrix &k,
           const Matrix &v, std::span<const size_t> positions,
           unsigned n_heads, unsigned n_kv_heads,
           size_t window) override
    {
        uint64_t t0 = telemetry::nowNanos();
        Matrix ctx = inner_.attend(layer, q, k, v, positions, n_heads,
                                   n_kv_heads, window);
        nanos += telemetry::nowNanos() - t0;
        double rows = 0.0;
        for (size_t p : positions)
            rows += static_cast<double>(
                window ? std::min(p + 1, window) : p + 1);
        bytes += rows * 2.0 * static_cast<double>(k.cols()) *
                 kvBytesPerElem_;
        return ctx;
    }

    uint64_t nanos = 0;
    double bytes = 0.0;

  private:
    CacheAttendBackend inner_;
    double kvBytesPerElem_;
};

/** Running totals over every packed linear layer. */
struct LinearTotals
{
    uint64_t nanos = 0, quantizeNanos = 0, gemmNanos = 0;
    double encodeBytes = 0.0, gemmFlops = 0.0;
};

LinearTotals
linearTotals(const std::vector<std::shared_ptr<LayerStats>> &stats,
             double act_bytes_per_elem)
{
    LinearTotals t;
    for (const auto &s : stats) {
        double rows = static_cast<double>(s->rows.load());
        double in = static_cast<double>(s->inFeatures);
        double out = static_cast<double>(s->outFeatures);
        t.nanos += s->nanos.load();
        t.quantizeNanos += s->quantizeNanos.load();
        t.gemmNanos += s->gemmNanos.load();
        // The encoder reads fp32 rows and writes packed ones.
        t.encodeBytes += rows * in * (4.0 + act_bytes_per_elem);
        t.gemmFlops += 2.0 * rows * in * out;
    }
    return t;
}

} // anonymous namespace

int
argmaxRow(const Matrix &logits, size_t row)
{
    size_t best = 0;
    for (size_t c = 1; c < logits.cols(); ++c)
        if (logits(row, c) > logits(row, best))
            best = c;
    return static_cast<int>(best);
}

namespace {

/** The model, arena and attend backend one replay runs on. */
class Replayer
{
  public:
    Replayer(const m2x::model::ModelConfig &model_cfg,
             const m2x::runtime::ServingConfig &cfg, const RunInputs &in,
             size_t first_id)
        : modelCfg_(model_cfg), pool_(cfg.threads), model_(model_cfg),
          arena_(model_cfg.kvDim(), cfg.kvMode, cfg.format, cfg.isa,
                 {cfg.pageRows, cfg.arenaPages, cfg.codec}),
          packedBytes_(m2x::packedCodecInfo(cfg.codec).bitsPerElement /
                       8.0),
          backend_(&pool_, cfg.kvMode == KvCacheMode::Packed
                               ? packedBytes_
                               : 4.0),
          firstId_(first_id)
    {
        model_.rebuild(m2x::runtime::packedLinearFactory(
            cfg.format, &pool_, &stats_, cfg.isa, cfg.codec));
        for (const auto &burst : in.bursts)
            for (const RequestInput &r : burst)
                reqs_.push_back(&r);
    }

    /**
     * Replay the first @p steps steps of @p run from an empty arena;
     * every request's pages are back on the free list afterwards.
     */
    ReplayResult replaySteps(const DriveLog &run, size_t steps);

  private:
    const m2x::model::ModelConfig &modelCfg_;
    ThreadPool pool_;
    std::vector<std::shared_ptr<LayerStats>> stats_;
    m2x::model::TinyTransformer model_;
    KvPageArena arena_;
    double packedBytes_;
    TimedAttendBackend backend_;
    size_t firstId_;
    std::vector<const RequestInput *> reqs_;
};

ReplayResult
Replayer::replaySteps(const DriveLog &run, size_t steps)
{
    ReplayResult rr;
    const size_t n = reqs_.size();
    std::vector<std::vector<int>> out(n);
    std::vector<std::unique_ptr<KvCache>> cache(n);

    auto local_of = [&](size_t id) {
        m2x_assert(id >= firstId_ && id - firstId_ < n,
                   "replay: request id %zu outside the run", id);
        return id - firstId_;
    };
    auto fail = [&](std::string msg) {
        if (rr.matched) {
            rr.matched = false;
            rr.mismatch = std::move(msg);
        }
    };
    auto forward = [&](std::span<const int> tokens,
                       std::span<const size_t> positions,
                       PhaseWork &ph) {
        LinearTotals a = linearTotals(stats_, packedBytes_);
        uint64_t att_ns = backend_.nanos;
        double att_bytes = backend_.bytes;
        uint64_t t0 = telemetry::nowNanos();
        Matrix logits = model_.forwardChunk(tokens, positions, backend_);
        uint64_t t1 = telemetry::nowNanos();
        LinearTotals b = linearTotals(stats_, packedBytes_);
        ph.forwardS += 1e-9 * static_cast<double>(t1 - t0);
        ph.linearS += 1e-9 * static_cast<double>(b.nanos - a.nanos);
        ph.encodeS += 1e-9 * static_cast<double>(b.quantizeNanos -
                                                 a.quantizeNanos);
        ph.gemmS +=
            1e-9 * static_cast<double>(b.gemmNanos - a.gemmNanos);
        ph.attendS +=
            1e-9 * static_cast<double>(backend_.nanos - att_ns);
        ph.encodeBytes += b.encodeBytes - a.encodeBytes;
        ph.gemmFlops += b.gemmFlops - a.gemmFlops;
        ph.attendBytes += backend_.bytes - att_bytes;
        return logits;
    };
    auto release = [&](size_t local) {
        rr.pagesChurned += cache[local]->pagesHeld();
        cache[local].reset();
    };
    // Admission prefill of the request's whole history, as the
    // engine's activate() runs it.
    auto prefill = [&](size_t local, bool resumed) {
        std::vector<int> hist(reqs_[local]->prompt);
        if (resumed)
            hist.insert(hist.end(), out[local].begin(),
                        out[local].end() - 1);
        std::vector<size_t> positions(hist.size());
        for (size_t t = 0; t < hist.size(); ++t)
            positions[t] = t;
        (resumed ? rr.reprefillTokens : rr.freshPrefillTokens) +=
            hist.size();
        cache[local] =
            std::make_unique<KvCache>(arena_, modelCfg_.nLayers);
        backend_.beginChunk(*cache[local]);
        return forward(hist, positions, rr.prefill);
    };
    auto emit = [&](size_t local, int want, int got) {
        ++rr.tokensChecked;
        if (want != got)
            fail(m2x::strFormat(
                "request %zu token %zu: engine %d, replay %d",
                local, out[local].size(), want, got));
        out[local].push_back(want);
        if (out[local].size() >= reqs_[local]->maxNew)
            release(local);
    };

    std::vector<int> tokens;
    std::vector<size_t> positions;
    std::vector<KvCache *> row_caches;
    for (size_t si = 0; si < steps && rr.matched; ++si) {
        const StepTrace &st = run.steps[si];
        for (size_t id : st.resumed)
            prefill(local_of(id), true);
        for (size_t k = 0; k < st.fresh.size(); ++k) {
            size_t local = local_of(st.fresh[k]);
            Matrix logits = prefill(local, false);
            if (st.emitted[k].first != st.fresh[k])
                fail(m2x::strFormat(
                    "step %zu: admission token %zu from request "
                    "%zu, expected %zu", si, k, st.emitted[k].first,
                    st.fresh[k]));
            emit(local, st.emitted[k].second,
                 argmaxRow(logits, logits.rows() - 1));
        }
        for (size_t id : st.preempted)
            release(local_of(id));

        tokens.clear();
        positions.clear();
        row_caches.clear();
        for (size_t k = st.fresh.size(); k < st.emitted.size(); ++k) {
            size_t local = local_of(st.emitted[k].first);
            if (!cache[local]) {
                fail(m2x::strFormat("step %zu: decode row for "
                                    "request %zu, which holds no "
                                    "cache", si, local));
                break;
            }
            tokens.push_back(out[local].back());
            positions.push_back(cache[local]->length());
            row_caches.push_back(cache[local].get());
        }
        if (rr.matched && !tokens.empty()) {
            backend_.beginRows(row_caches);
            Matrix logits = forward(tokens, positions, rr.decode);
            for (size_t s = 0; s < tokens.size(); ++s) {
                const auto &[id, tok] =
                    st.emitted[st.fresh.size() + s];
                emit(local_of(id), tok, argmaxRow(logits, s));
            }
        }
        if (arena_.livePages() != st.livePages)
            fail(m2x::strFormat("step %zu: engine holds %zu pages, "
                                "replay %zu", si, st.livePages,
                                arena_.livePages()));
    }
    return rr;
}

} // anonymous namespace

ReplayResult
replay(const m2x::model::ModelConfig &model_cfg,
       const m2x::runtime::ServingConfig &cfg, const RunInputs &in,
       const DriveLog &run, size_t first_id)
{
    Replayer r(model_cfg, cfg, in, first_id);
    // Warm-up: replay until the engine's page use first comes within
    // 5% of its peak, so the timed replay, like the engine after its
    // earlier drives, finds the arena's pages materialized.
    size_t peak = 0;
    for (const StepTrace &st : run.steps)
        peak = std::max(peak, st.livePages);
    size_t warm_steps = 0;
    while (warm_steps < run.steps.size() &&
           run.steps[warm_steps].livePages * 20 < peak * 19)
        ++warm_steps;
    ReplayResult warm =
        r.replaySteps(run, std::min(warm_steps + 1, run.steps.size()));
    if (!warm.matched)
        return warm;
    return r.replaySteps(run, run.steps.size());
}

} // namespace servebench

#include "runtime/serving.hh"

#include <algorithm>
#include <numeric>

#include "runtime/telemetry.hh"
#include "util/logging.hh"

namespace m2x {
namespace runtime {

namespace {

/** @{ Cached serving metric handles (null while metrics off). */
std::atomic<telemetry::Histogram *> stepSlot{nullptr};
std::atomic<telemetry::Histogram *> tokenSlot{nullptr};
std::atomic<telemetry::Histogram *> ttftSlot{nullptr};
std::atomic<telemetry::Counter *> tokensSlot{nullptr};
std::atomic<telemetry::Counter *> preemptSlot{nullptr};
std::atomic<telemetry::Counter *> admitSlot{nullptr};
std::atomic<telemetry::Gauge *> occupancySlot{nullptr};
std::atomic<telemetry::Gauge *> activeSlot{nullptr};
std::atomic<telemetry::Gauge *> queuedSlot{nullptr};
std::atomic<telemetry::Gauge *> freePagesSlot{nullptr};
std::atomic<telemetry::Gauge *> highWaterSlot{nullptr};
std::atomic<telemetry::Gauge *> attendScratchSlot{nullptr};
/** @} */

/** Greedy sampling: the arg-max logit of one row. */
int
argmaxRow(const Matrix &logits, size_t row)
{
    size_t best = 0;
    for (size_t c = 1; c < logits.cols(); ++c)
        if (logits(row, c) > logits(row, best))
            best = c;
    return static_cast<int>(best);
}

} // anonymous namespace

const char *
requestStateName(RequestState s)
{
    switch (s) {
    case RequestState::Queued:
        return "queued";
    case RequestState::Active:
        return "active";
    case RequestState::Preempted:
        return "preempted";
    case RequestState::Finished:
        return "finished";
    }
    return "?";
}

Matrix
CacheAttendBackend::forwardChunk(const model::TinyTransformer &model,
                                 KvCache &cache,
                                 std::span<const int> tokens)
{
    positions_.resize(tokens.size());
    std::iota(positions_.begin(), positions_.end(), cache.length());
    beginChunk(cache);
    return model.forwardChunk(tokens, positions_, *this);
}

Matrix
CacheAttendBackend::forwardRows(const model::TinyTransformer &model,
                                std::span<KvCache *const> caches,
                                std::span<const int> tokens)
{
    m2x_assert(caches.size() == tokens.size(),
               "forwardRows: %zu caches for %zu tokens", caches.size(),
               tokens.size());
    positions_.clear();
    for (const KvCache *c : caches)
        positions_.push_back(c->length());
    beginRows(caches);
    return model.forwardChunk(tokens, positions_, *this);
}

Matrix
CacheAttendBackend::attend(size_t layer, const Matrix &q,
                           const Matrix &k, const Matrix &v,
                           std::span<const size_t> positions,
                           unsigned n_heads, unsigned n_kv_heads,
                           size_t window)
{
    telemetry::TraceSpan span("decode.attend");
    if (span.active()) {
        span.arg("layer", layer);
        span.arg("rows", q.rows());
        span.arg("mode", chunk_ ? "prefill" : "step");
    }
    uint64_t t0 = telemetry::nowNanos();
    size_t d = q.cols();     // n_heads * headDim
    size_t d_kv = k.cols();  // n_kv_heads * headDim (GQA: <= d)
    Matrix ctx(q.rows(), d);
    if (chunk_) {
        chunk_->append(layer, k.data(), v.data(), k.rows(), pool_);
        chunk_->attend(layer, q.data(), q.rows(), positions[0],
                       n_heads, ctx.data(), pool_, n_kv_heads,
                       window);
        // Sliding window: pages every query's window has moved past
        // can never be attended again. Release them once the last
        // layer is done with this chunk (earlier layers only ever
        // see the same or later positions).
        if (window != 0 && layer + 1 == chunk_->layers()) {
            size_t end = positions[0] + q.rows();
            chunk_->releaseBefore(end > window ? end - window : 0);
        }
    } else {
        m2x_assert(rowCaches_.size() == q.rows(),
                   "CacheAttendBackend: %zu row caches for %zu rows",
                   rowCaches_.size(), q.rows());
        ThreadPool &tp = pool_ ? *pool_ : ThreadPool::global();
        tp.parallelFor(0, q.rows(), 1, [&](size_t s0, size_t s1) {
            for (size_t s = s0; s < s1; ++s) {
                // Per-sequence span: in step mode each lane attends
                // its own cache, so the trace shows the per-sequence
                // cost on its lane's track.
                telemetry::TraceSpan seq_span("decode.attend.seq");
                if (seq_span.active()) {
                    seq_span.arg("seq", s);
                    seq_span.arg("layer", layer);
                    seq_span.arg("pos", positions[s]);
                }
                KvCache &c = *rowCaches_[s];
                c.append(layer, k.data() + s * d_kv,
                         v.data() + s * d_kv, 1);
                c.attend(layer, q.data() + s * d, 1, positions[s],
                         n_heads, ctx.data() + s * d, pool_,
                         n_kv_heads, window);
                if (window != 0 && layer + 1 == c.layers()) {
                    size_t end = positions[s] + 1;
                    c.releaseBefore(end > window ? end - window
                                                 : 0);
                }
            }
        });
    }
    if (attendNanos_)
        attendNanos_->fetch_add(telemetry::nowNanos() - t0,
                                std::memory_order_relaxed);
    return ctx;
}

ServingEngine::ServingEngine(const model::ModelConfig &model_cfg,
                             ServingConfig cfg)
    : cfg_(cfg),
      ownedPool_(cfg.threads
                     ? std::make_unique<ThreadPool>(cfg.threads)
                     : nullptr),
      model_(model_cfg), isa_(cfg.isa),
      arena_(model_cfg.kvDim(), cfg.kvMode, cfg.format, cfg.isa,
             KvArenaConfig{cfg.pageRows, cfg.arenaPages, cfg.codec}),
      backend_(ownedPool_.get(), &attendNanos_)
{
    m2x_assert(cfg.arenaPages > 0,
               "ServingEngine needs a fixed arena (arenaPages > 0)");
    m2x_assert(cfg.maxBatch > 0, "ServingEngine needs maxBatch > 0");
    m2x_assert(cfg.admitFreeFraction >= 0.0 &&
               cfg.admitFreeFraction < 1.0,
               "admitFreeFraction must be in [0, 1)");
    model_.rebuild(packedLinearFactory(cfg.format, ownedPool_.get(),
                                       &stats_, isa_, cfg.codec));
}

ServingEngine::~ServingEngine() = default;

size_t
ServingEngine::submit(std::vector<int> prompt,
                      size_t max_new_tokens)
{
    m2x_assert(!prompt.empty(), "submit: empty prompt");
    m2x_assert(max_new_tokens > 0, "submit: max_new_tokens == 0");
    size_t id = reqs_.size();
    Request r;
    r.prompt = std::move(prompt);
    r.st.promptTokens = r.prompt.size();
    r.st.maxNewTokens = max_new_tokens;
    r.st.submitNs = telemetry::nowNanos();
    reqs_.push_back(std::move(r));
    queued_.push_back(id);
    return id;
}

const RequestStats &
ServingEngine::stats(size_t id) const
{
    m2x_assert(id < reqs_.size(), "request %zu out of %zu", id,
               reqs_.size());
    return reqs_[id].st;
}

const std::vector<int> &
ServingEngine::generated(size_t id) const
{
    m2x_assert(id < reqs_.size(), "request %zu out of %zu", id,
               reqs_.size());
    return reqs_[id].out;
}

void
ServingEngine::finish(Request &r, uint64_t now)
{
    r.cache.reset(); // pages return to the arena's free list
    r.st.state = RequestState::Finished;
    r.st.finishNs = now;
    ++finished_;
}

void
ServingEngine::activate(size_t id)
{
    Request &r = reqs_[id];
    bool resumed = !r.out.empty();
    // The cache must hold every token the model has consumed so
    // far: the prompt, plus all generated tokens except the newest
    // (which has not been fed back yet).
    std::vector<int> hist(r.prompt);
    if (resumed)
        hist.insert(hist.end(), r.out.begin(), r.out.end() - 1);

    r.cache = std::make_unique<KvCache>(arena_,
                                        model_.config().nLayers);
    telemetry::TraceSpan span("serving.prefill");
    if (span.active()) {
        span.arg("request", id);
        span.arg("tokens", hist.size());
        span.arg("resumed", resumed ? 1 : 0);
    }
    Matrix logits = backend_.forwardChunk(model_, *r.cache, hist);
    uint64_t now = telemetry::nowNanos();
    r.st.state = RequestState::Active;
    if (auto *c = telemetry::cachedCounter(admitSlot,
                                           "serving.admitted"))
        c->add(1);
    if (!resumed) {
        // The prefill's last-row logits produce the first token; a
        // resumed request already knows its next token (out.back()).
        int tok = argmaxRow(logits, logits.rows() - 1);
        r.out.push_back(tok);
        r.st.generated = 1;
        r.st.firstTokenNs = now;
        r.lastEmitNs = now;
        ttfts_.push_back(r.st.ttftSeconds());
        if (auto *h = telemetry::cachedHistogram(ttftSlot,
                                                 "serving.ttft_ns"))
            h->record(now - r.st.submitNs);
        if (auto *c = telemetry::cachedCounter(tokensSlot,
                                               "serving.tokens"))
            c->add(1);
        bool last = r.out.size() >= r.st.maxNewTokens;
        if (tokenCb_)
            tokenCb_(id, tok, last);
        if (last) {
            finish(r, now);
            return;
        }
    }
    active_.push_back(id);
}

void
ServingEngine::admit()
{
    unsigned layers = model_.config().nLayers;
    size_t reserve = static_cast<size_t>(
        cfg_.admitFreeFraction *
        static_cast<double>(cfg_.arenaPages));
    while (active_.size() < cfg_.maxBatch) {
        size_t id;
        bool from_preempted = !preempted_.empty();
        if (from_preempted)
            id = preempted_.front(); // sorted: oldest resumes first
        else if (!queued_.empty())
            id = queued_.front();
        else
            break;
        Request &r = reqs_[id];
        size_t hist = r.prompt.size() +
                      (r.out.empty() ? 0 : r.out.size() - 1);
        // Pages for the history plus the first decode row, so a
        // fresh admission cannot immediately force a preemption.
        size_t needed =
            2 * layers *
            KvPageArena::pagesForRows(hist + 1, cfg_.pageRows);
        if (arena_.freePages() < needed + reserve) {
            if (active_.empty() && arena_.livePages() == 0)
                m2x_fatal(
                    "serving: request %zu needs %zu pages (+%zu "
                    "watermark) but the arena holds only %zu — "
                    "enlarge arenaPages or shrink the request",
                    id, needed, reserve, arena_.capacityPages());
            break; // admission stall until retirements free pages
        }
        if (from_preempted)
            preempted_.erase(preempted_.begin());
        else
            queued_.pop_front();
        activate(id);
    }
}

void
ServingEngine::ensureStepCapacity()
{
    auto step_pages = [&] {
        size_t worst = 0;
        for (size_t id : active_)
            worst += reqs_[id].cache->pagesNeededFor(1);
        return worst;
    };
    size_t worst = step_pages();
    while (arena_.freePages() < worst && active_.size() > 1) {
        // FCFS with preemption: evict the youngest active sequence;
        // its pages return to the free list and its token history
        // stays behind for a byte-exact re-prefill later.
        size_t victim = active_.back();
        active_.pop_back();
        Request &r = reqs_[victim];
        r.cache.reset();
        r.st.state = RequestState::Preempted;
        ++r.st.preemptions;
        ++preemptions_;
        preempted_.insert(
            std::lower_bound(preempted_.begin(), preempted_.end(),
                             victim),
            victim);
        if (auto *c = telemetry::cachedCounter(
                preemptSlot, "serving.preemptions"))
            c->add(1);
        worst = step_pages();
    }
    m2x_assert(arena_.freePages() >= worst,
               "serving: one sequence's step needs %zu pages but "
               "only %zu are free — enlarge arenaPages", worst,
               arena_.freePages());
}

void
ServingEngine::updateGauges()
{
    if (auto *g = telemetry::cachedGauge(occupancySlot,
                                         "serving.occupancy"))
        g->set(arena_.occupancy());
    if (auto *g = telemetry::cachedGauge(activeSlot,
                                         "serving.active"))
        g->set(static_cast<double>(active_.size()));
    if (auto *g = telemetry::cachedGauge(queuedSlot,
                                         "serving.queued"))
        g->set(static_cast<double>(waitingCount()));
    if (auto *g = telemetry::cachedGauge(freePagesSlot,
                                         "serving.free_pages"))
        g->set(static_cast<double>(arena_.freePages()));
    if (auto *g = telemetry::cachedGauge(
            highWaterSlot, "serving.high_water_pages"))
        g->set(static_cast<double>(arena_.highWaterPages()));
    if (auto *g = telemetry::cachedGauge(
            attendScratchSlot, "decode.attend_scratch_bytes"))
        g->set(static_cast<double>(attendScratchPeakBytes()));
}

bool
ServingEngine::step()
{
    if (idle())
        return false;
    telemetry::TraceSpan span("serving.step");
    admit();
    if (active_.empty()) {
        // Every admission either finished instantly (maxNew == 1)
        // or the queue drained; nothing to step this iteration.
        updateGauges();
        return !idle();
    }
    ensureStepCapacity();
    if (span.active()) {
        span.arg("active", active_.size());
        span.arg("waiting", waitingCount());
    }

    stepTokens_.clear();
    rowCaches_.clear();
    for (size_t id : active_) {
        Request &r = reqs_[id];
        stepTokens_.push_back(r.out.back());
        rowCaches_.push_back(r.cache.get());
    }
    uint64_t t0 = telemetry::nowNanos();
    Matrix logits =
        backend_.forwardRows(model_, rowCaches_, stepTokens_);
    uint64_t now = telemetry::nowNanos();

    auto *token_h =
        telemetry::cachedHistogram(tokenSlot, "serving.token_ns");
    size_t w = 0;
    for (size_t s = 0; s < active_.size(); ++s) {
        size_t id = active_[s];
        Request &r = reqs_[id];
        int tok = argmaxRow(logits, s);
        r.out.push_back(tok);
        r.st.generated = r.out.size();
        tokenLat_.push_back(
            1e-9 * static_cast<double>(now - r.lastEmitNs));
        if (token_h)
            token_h->record(now - r.lastEmitNs);
        r.lastEmitNs = now;
        bool last = r.out.size() >= r.st.maxNewTokens;
        if (tokenCb_)
            tokenCb_(id, tok, last);
        if (last)
            finish(r, now);
        else
            active_[w++] = id;
    }
    size_t emitted = active_.size();
    active_.resize(w);

    ++steps_;
    double occ = arena_.occupancy();
    occPeak_ = std::max(occPeak_, occ);
    occSum_ += occ;
    if (auto *h = telemetry::cachedHistogram(stepSlot,
                                             "serving.step_ns"))
        h->record(now - t0);
    if (auto *c = telemetry::cachedCounter(tokensSlot,
                                           "serving.tokens"))
        c->add(emitted);
    updateGauges();
    return true;
}

size_t
ServingEngine::runToCompletion()
{
    size_t before = 0;
    for (const Request &r : reqs_)
        before += r.out.size();
    while (step()) {
    }
    size_t after = 0;
    for (const Request &r : reqs_)
        after += r.out.size();
    return after - before;
}

} // namespace runtime
} // namespace m2x

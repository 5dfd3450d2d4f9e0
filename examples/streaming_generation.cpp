/**
 * @file
 * Streaming autoregressive generation through the continuous-batching
 * ServingEngine: a fixed batch of prompts, all submitted before the
 * first scheduler step, is prefilled once and then generated token
 * by token against persistent KV caches held in the packed M2XFP
 * byte streams (~4.5 bits/element), every token streamed through
 * the onToken callback. The same run is repeated with the dense fp32
 * cache — the bit-exact oracle baseline — to show the
 * resident-memory and throughput trade.
 *
 *   $ ./streaming_generation [--trace PATH]
 *
 * With --trace (or M2X_TRACE=PATH), the run writes a Chrome
 * trace_event JSON of every decode step, attend, quantize, and GEMM
 * span — open it at https://ui.perfetto.dev to see where the tokens
 * go (see docs/OBSERVABILITY.md).
 *
 *   $ ./streaming_generation --mixed [--trace PATH]
 *
 * --mixed switches from the fixed batch to mixed traffic through the
 * same engine and callback: requests arrive staggered over the run
 * with ragged prompt and generation lengths, the scheduler admits
 * them against a fixed page arena, re-batches whatever is active
 * each step, and preempts under memory pressure (see
 * docs/SERVING.md).
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "model/config.hh"
#include "runtime/serving.hh"
#include "runtime/telemetry.hh"
#include "util/logging.hh"
#include "util/rng.hh"

using namespace m2x;
using namespace m2x::runtime;

namespace {

/** Seconds since construction (on the shared telemetry clock). */
class Stopwatch
{
  public:
    Stopwatch() : start_(telemetry::nowNanos()) {}

    double
    seconds() const
    {
        return 1e-9 *
               static_cast<double>(telemetry::nowNanos() - start_);
    }

  private:
    uint64_t start_;
};

/** One request of a traffic script. */
struct Spec
{
    size_t arriveStep, promptLen, maxNew;
};

/**
 * Serve @p traffic through a fresh @p engine: request i is submitted
 * once the scheduler reaches step traffic[i].arriveStep (arrival
 * step 0 lands before the first step()). Streamed delivery: every
 * generated token arrives through the onToken callback the moment
 * the scheduler harvests it — the client-visible stream, interleaved
 * across requests exactly as decode steps complete. Returns each
 * request's stream.
 */
std::vector<std::vector<int>>
serve(ServingEngine &engine, const std::vector<Spec> &traffic,
      unsigned vocab)
{
    std::vector<std::vector<int>> streams(traffic.size());
    engine.onToken([&](size_t req_id, int token, bool is_last) {
        streams[req_id].push_back(token);
        if (is_last)
            std::printf("  * request %zu complete: %zu tokens "
                        "streamed\n",
                        req_id, streams[req_id].size());
    });

    Rng rng(7);
    size_t submitted = 0, step = 0;
    while (submitted < traffic.size() || !engine.idle()) {
        while (submitted < traffic.size() &&
               traffic[submitted].arriveStep <= step) {
            const Spec &s = traffic[submitted];
            std::vector<int> prompt(s.promptLen);
            for (auto &t : prompt)
                t = static_cast<int>(rng.uniformInt(vocab));
            size_t id = engine.submit(std::move(prompt), s.maxNew);
            std::printf("  step %3zu: + request %zu (prompt %zu, "
                        "gen %zu)\n",
                        step, id, s.promptLen, s.maxNew);
            ++submitted;
        }
        engine.step();
        ++step;
    }
    for (size_t id = 0; id < engine.requestCount(); ++id)
        m2x_assert(streams[id].size() == engine.stats(id).generated,
                   "streamed token count diverges from stats for "
                   "request %zu",
                   id);
    return streams;
}

/**
 * A fixed batch, prefilled once and then generated token by token:
 * every request arrives before the first step into an arena sized
 * for all the rows the batch will cache, so step 1 prefills the
 * whole batch and every later step advances all of it by one token.
 */
int
runFixedBatch(const model::ModelConfig &cfg)
{
    const size_t batch = 4, prompt_len = 32, decode_steps = 24;
    const size_t page_rows = 16;
    // The prefill yields each request's first token, every decode
    // step one more; the last token is never fed back into the cache.
    const std::vector<Spec> traffic(
        batch, Spec{0, prompt_len, decode_steps + 1});
    const size_t rows = prompt_len + decode_steps;
    double tokens_per_s[2] = {0.0, 0.0};
    KvCacheMode modes[2] = {KvCacheMode::Packed, KvCacheMode::Fp32};
    for (int mi = 0; mi < 2; ++mi) {
        KvCacheMode mode = modes[mi];
        ServingEngine engine(
            cfg, {.kvMode = mode,
                  .pageRows = page_rows,
                  .arenaPages =
                      batch * 2 * cfg.nLayers *
                      KvPageArena::pagesForRows(rows, page_rows),
                  .admitFreeFraction = 0.0});
        std::printf("[%s cache]\n", kvCacheModeName(mode));
        Stopwatch total;
        std::vector<std::vector<int>> streams =
            serve(engine, traffic, cfg.vocab);
        double wall = total.seconds();
        m2x_assert(engine.preemptionCount() == 0 &&
                       engine.stepCount() == decode_steps,
                   "fixed batch: %zu preemptions over %zu steps",
                   engine.preemptionCount(), engine.stepCount());

        // Every request finishes on the last step: the decode span
        // runs from the last prefill's token to there.
        const RequestStats &last = engine.stats(batch - 1);
        double gen_s =
            1e-9 * static_cast<double>(last.finishNs -
                                       last.firstTokenNs);
        tokens_per_s[mi] =
            static_cast<double>(batch * decode_steps) / gen_s;
        // K + V rows of every layer, row-granular.
        double bpt = 2.0 * cfg.nLayers *
                     static_cast<double>(engine.arena().pageBytes()) /
                     static_cast<double>(engine.arena().pageRows());
        std::printf("  %zu seqs x (%zu prompt + %zu generated) in "
                    "%.3f s\n",
                    batch, prompt_len, decode_steps + 1, wall);
        std::printf("  decode: %.0f tokens/s, attention %.3f s\n",
                    tokens_per_s[mi], engine.attendSeconds());
        std::printf("  KV cache: %.0f bytes resident at the last "
                    "step (%.1f bytes/token, %.2f bits/element)\n",
                    bpt * static_cast<double>(batch * rows), bpt,
                    bpt * 8.0 / (2.0 * cfg.nLayers * cfg.dModel));
        std::printf("  seq 0 stream:");
        for (int t : streams[0])
            std::printf(" %d", t);
        std::printf("\n\n");
    }
    std::printf("decode packed vs fp32 cache: %.2fx tokens/s\n",
                tokens_per_s[0] / tokens_per_s[1]);
    return 0;
}

/**
 * Mixed traffic through the scheduler: requests arrive staggered
 * (one submitted every couple of scheduler steps) with ragged
 * prompt/generation lengths, against a deliberately small page
 * arena so admission stalls and preemption are visible in the
 * printed lifecycle.
 */
int
runMixed(const model::ModelConfig &cfg)
{
    const std::vector<Spec> traffic = {
        {0, 48, 24}, {1, 12, 40}, {3, 96, 16},  {4, 24, 8},
        {6, 64, 32}, {8, 8, 12},  {10, 160, 20}, {11, 40, 28},
    };

    // admitFreeFraction 0: admission packs the arena tight, so the
    // active set's growth forces visible preemption instead of being
    // absorbed by the default watermark headroom.
    ServingEngine engine(cfg, {.kvMode = KvCacheMode::Packed,
                               .pageRows = 16,
                               .arenaPages = 144,
                               .maxBatch = 6,
                               .admitFreeFraction = 0.0});
    std::printf("[mixed traffic] packed arena: %zu pages x %zu "
                "rows (%.1f KiB resident budget)\n",
                engine.arena().capacityPages(),
                engine.arena().pageRows(),
                static_cast<double>(engine.arena().capacityPages() *
                                    engine.arena().pageBytes()) /
                    1024.0);

    Stopwatch total;
    std::vector<std::vector<int>> streams =
        serve(engine, traffic, cfg.vocab);
    double wall = total.seconds();

    size_t tokens = 0;
    for (size_t id = 0; id < engine.requestCount(); ++id) {
        const RequestStats &st = engine.stats(id);
        tokens += st.generated;
        std::printf("  request %zu: %-8s prompt %3zu  gen %2zu  "
                    "ttft %6.1f ms  preempted %zux\n",
                    id, requestStateName(st.state), st.promptTokens,
                    st.generated, st.ttftSeconds() * 1e3,
                    st.preemptions);
    }
    std::printf("\n  %zu tokens in %.3f s (%.0f tokens/s), "
                "%zu scheduler steps, %zu preemptions\n",
                tokens, wall,
                static_cast<double>(tokens) / wall,
                engine.stepCount(), engine.preemptionCount());
    std::printf("  arena: peak occupancy %.0f%%, high water %zu "
                "pages, %zu live at exit\n",
                engine.occupancyPeak() * 100.0,
                engine.arena().highWaterPages(),
                engine.arena().livePages());
    std::printf("  streamed %zu tokens via onToken; request 0:",
                tokens);
    for (int t : streams[0])
        std::printf(" %d", t);
    std::printf("\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string trace_path;
    bool mixed = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
            trace_path = argv[++i];
        } else if (std::strcmp(argv[i], "--mixed") == 0) {
            mixed = true;
        } else {
            std::fprintf(stderr,
                         "usage: %s [--mixed] [--trace PATH]\n",
                         argv[0]);
            return 1;
        }
    }
    if (!trace_path.empty())
        telemetry::traceStart(trace_path);

    model::ModelConfig cfg = model::llama2_7b();
    std::printf("model %s: %u layers, d_model %u, vocab %u\n\n",
                cfg.name.c_str(), cfg.nLayers, cfg.dModel,
                cfg.vocab);

    int rc = mixed ? runMixed(cfg) : runFixedBatch(cfg);
    if (!trace_path.empty()) {
        size_t n = telemetry::traceStop();
        std::printf("wrote %zu trace events to %s "
                    "(load at https://ui.perfetto.dev)\n",
                    n, trace_path.c_str());
    }
    return rc;
}

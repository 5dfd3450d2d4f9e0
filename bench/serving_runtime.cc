/**
 * @file
 * Continuous-batching serving throughput over the paged packed KV
 * arena: a seeded Poisson request stream (exponential inter-arrival
 * gaps, uniformly varied prompt and generation lengths) is driven
 * through the ServingEngine in both KV modes — packed M2XFP pages at
 * ~4.5 bits/element, and dense fp32 pages given the SAME arena byte
 * budget (so the fp32 run holds ~7.1x fewer pages, which is exactly
 * the paper's point: compressed KV is what buys concurrency). Writes
 * the machine-readable BENCH_serving.json with sustained tokens/s,
 * p50/p99 TTFT and inter-token latency, arena occupancy (mean/peak),
 * preemption counts and the two cross-mode ratios CI gates on:
 *
 *  - packed_vs_fp32_tokens_per_s — same-machine throughput ratio;
 *  - concurrent_vs_fp32_capacity — how many fully grown worst-case
 *    requests each arena can hold concurrently (deterministic: pure
 *    byte accounting, no scheduler noise), required to be >= 4x.
 *
 * Parity precedes timing: a small-model ServingEngine run must
 * reproduce a single-sequence KV-cached greedy run token-for-token
 * in both KV modes before any throughput is measured.
 *
 * The runs execute with the telemetry metrics registry enabled, so
 * serving.step_ns / serving.token_ns / serving.ttft_ns histograms
 * and the serving.occupancy gauge are live; --trace additionally
 * captures serving.step / serving.prefill spans for Perfetto (and
 * for tools/check_trace.py --require serving.step in CI).
 *
 * Usage: serving_runtime [--quick] [--out PATH] [--trace PATH]
 *   --quick  small model + short stream (CI smoke); its rows carry
 *            their own workload keys so they never falsely match a
 *            full-run baseline in check_bench_regression.py
 *   --out    output path (default BENCH_serving.json)
 *   --trace  also collect a Chrome trace_event JSON of the run
 */

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "model/config.hh"
#include "runtime/serving.hh"
#include "runtime/telemetry.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace {

using namespace m2x;
using namespace m2x::runtime;
using bench::hardwareThreads;
using bench::JsonWriter;
using bench::Stopwatch;

int
argmaxRow(const Matrix &logits, size_t row)
{
    size_t best = 0;
    for (size_t c = 1; c < logits.cols(); ++c)
        if (logits(row, c) > logits(row, best))
            best = c;
    return static_cast<int>(best);
}

/** Nearest-rank quantile of an unsorted sample (0 when empty). */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double rank = q * static_cast<double>(v.size() - 1);
    return v[static_cast<size_t>(rank + 0.5)];
}

/** One request of the generated stream. */
struct Arrival
{
    size_t step;  //!< scheduler step at which the request arrives
    std::vector<int> prompt;
    size_t maxNew;
};

/**
 * The seeded Poisson stream: exponential inter-arrival gaps (in
 * scheduler steps), uniform prompt and generation lengths. Fully
 * deterministic for a given seed.
 */
std::vector<Arrival>
makeWorkload(size_t requests, unsigned vocab, uint64_t seed,
             double mean_gap_steps, size_t prompt_lo,
             size_t prompt_hi, size_t gen_lo, size_t gen_hi)
{
    Rng rng(seed);
    std::vector<Arrival> work;
    double at = 0.0;
    for (size_t i = 0; i < requests; ++i) {
        at += -mean_gap_steps * std::log(1.0 - rng.uniform());
        Arrival a;
        a.step = static_cast<size_t>(at);
        size_t plen = prompt_lo +
                      rng.uniformInt(prompt_hi - prompt_lo + 1);
        a.prompt.resize(plen);
        for (auto &t : a.prompt)
            t = static_cast<int>(rng.uniformInt(vocab));
        a.maxNew = gen_lo + rng.uniformInt(gen_hi - gen_lo + 1);
        work.push_back(std::move(a));
    }
    return work;
}

/** Everything one timed serving run reports. */
struct RunResult
{
    double wallS = 0.0;
    size_t generated = 0;
    double tokensPerS = 0.0;
    double ttftP50 = 0.0, ttftP99 = 0.0;
    double tokenP50 = 0.0, tokenP99 = 0.0;
    double occMean = 0.0, occPeak = 0.0;
    size_t peakActive = 0;
    size_t preemptions = 0;
    size_t steps = 0;
    size_t highWaterPages = 0;
    size_t residentBytes = 0;
    size_t arenaPages = 0;
    size_t capacityRequests = 0; //!< worst-case requests that fit
};

/**
 * Drive @p work through one engine: submissions happen when the
 * scheduler step counter passes each arrival step (idle gaps fast
 * forward to the next arrival).
 */
RunResult
runStream(ServingEngine &eng, const std::vector<Arrival> &work)
{
    RunResult r;
    r.arenaPages = eng.arena().capacityPages();
    size_t submitted = 0, step = 0;
    Stopwatch sw;
    while (submitted < work.size() || !eng.idle()) {
        while (submitted < work.size() &&
               work[submitted].step <= step) {
            eng.submit(work[submitted].prompt,
                       work[submitted].maxNew);
            ++submitted;
        }
        if (!eng.step() && submitted < work.size()) {
            step = work[submitted].step;
            continue;
        }
        r.peakActive = std::max(r.peakActive, eng.activeCount());
        ++step;
    }
    r.wallS = sw.seconds();
    for (size_t i = 0; i < eng.requestCount(); ++i)
        r.generated += eng.stats(i).generated;
    r.tokensPerS = static_cast<double>(r.generated) / r.wallS;
    std::vector<double> ttfts = eng.ttfts();
    r.ttftP50 = quantile(ttfts, 0.50);
    r.ttftP99 = quantile(ttfts, 0.99);
    std::vector<double> lat = eng.tokenLatencies();
    r.tokenP50 = quantile(lat, 0.50);
    r.tokenP99 = quantile(lat, 0.99);
    r.occMean = eng.occupancyMean();
    r.occPeak = eng.occupancyPeak();
    r.preemptions = eng.preemptionCount();
    r.steps = eng.stepCount();
    r.highWaterPages = eng.arena().highWaterPages();
    r.residentBytes = eng.arena().residentBytes();
    return r;
}

/**
 * Token-for-token parity of the engine against each request run
 * alone through its model and one KV cache, before anything is
 * timed, in both KV modes.
 */
void
verifyParity()
{
    model::ModelConfig vc = model::llama2_7b();
    vc.nLayers = 1;
    vc.vocab = 128;
    std::vector<Arrival> work = makeWorkload(
        3, vc.vocab, 77, 1.0, 4, 10, 3, 6);
    for (KvCacheMode mode :
         {KvCacheMode::Fp32, KvCacheMode::Packed}) {
        ServingEngine eng(vc, {.kvMode = mode,
                               .pageRows = 4,
                               .arenaPages = 128});
        for (const Arrival &a : work)
            eng.submit(a.prompt, a.maxNew);
        eng.runToCompletion();
        for (size_t i = 0; i < work.size(); ++i) {
            KvCache cache(vc.nLayers, vc.kvDim(), mode, {},
                          eng.simdIsa(), eng.codec());
            CacheAttendBackend backend(nullptr, nullptr);
            Matrix logits =
                backend.forwardChunk(eng.model(), cache, work[i].prompt);
            std::vector<int> want;
            want.push_back(argmaxRow(logits, logits.rows() - 1));
            KvCache *const row[] = {&cache};
            while (want.size() < work[i].maxNew) {
                int next = want.back();
                want.push_back(argmaxRow(
                    backend.forwardRows(eng.model(), row, {&next, 1}),
                    0));
            }
            m2x_assert(eng.generated(i) == want,
                       "serving/%s request %zu diverged from the "
                       "single-sequence decode reference",
                       kvCacheModeName(mode), i);
        }
    }
    std::printf("parity: serving == single-sequence decode "
                "(fp32 + packed)\n\n");
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bench::RuntimeBenchArgs args =
        bench::parseRuntimeBenchArgs(argc, argv, "BENCH_serving.json");
    const bool quick = args.quick;

    bench::banner("SERVING",
                  "continuous batching over the paged packed KV "
                  "arena");
    verifyParity();

    model::ModelConfig mc = model::llama2_7b();
    if (quick) {
        mc.nLayers = 1;
        mc.vocab = 128;
    }
    const uint64_t seed = 9;
    const size_t requests = quick ? 6 : 24;
    const size_t page_rows = 16;
    const size_t arena_pages = quick ? 96 : 1024;
    const size_t max_batch = quick ? 8 : 16;
    const double mean_gap = quick ? 1.0 : 2.0;
    const size_t prompt_lo = quick ? 8 : 48;
    const size_t prompt_hi = quick ? 24 : 192;
    const size_t gen_lo = quick ? 4 : 16;
    const size_t gen_hi = quick ? 12 : 64;
    unsigned threads = ThreadPool::defaultThreads();

    std::vector<Arrival> work = makeWorkload(
        requests, mc.vocab, seed, mean_gap, prompt_lo, prompt_hi,
        gen_lo, gen_hi);

    // Worst-case pages one fully grown request needs, per mode page
    // budget: prompt_hi + gen_hi - 1 cached rows across 2 streams x
    // nLayers. The deterministic concurrency-capacity denominator.
    size_t worst_rows = prompt_hi + gen_hi - 1;
    size_t worst_pages =
        2 * mc.nLayers *
        KvPageArena::pagesForRows(worst_rows, page_rows);

    bool metrics_were_on = telemetry::metricsEnabled();
    telemetry::setMetricsEnabled(true);

    RunResult res[2]; // [packed, fp32]
    KvCacheMode modes[2] = {KvCacheMode::Packed, KvCacheMode::Fp32};
    size_t pages_per_mode[2] = {arena_pages, 0};
    size_t arena_bytes = 0;
    for (int mi = 0; mi < 2; ++mi) {
        KvCacheMode mode = modes[mi];
        if (mi == 0) {
            // The packed arena defines the byte budget...
            KvPageArena probe(mc.dModel, KvCacheMode::Packed, {},
                              activeSimdIsa(),
                              {page_rows, arena_pages});
            arena_bytes = arena_pages * probe.pageBytes();
            // ...and the fp32 run gets the same bytes, which buys
            // ~7.1x fewer pages.
            pages_per_mode[1] = std::max<size_t>(
                1, arena_bytes / probe.fp32PageBytes());
        }
        ServingEngine eng(mc, {.threads = threads,
                               .kvMode = mode,
                               .pageRows = page_rows,
                               .arenaPages = pages_per_mode[mi],
                               .maxBatch = max_batch});
        telemetry::MetricRegistry::global().reset();
        res[mi] = runStream(eng, work);
        res[mi].capacityRequests =
            std::max<size_t>(1, pages_per_mode[mi] / worst_pages);
        std::printf(
            "serving/%-6s %zu pages (%.1f MiB budget): "
            "%7.1f tok/s, ttft p50/p99 %.2f/%.2f ms, "
            "token p50/p99 %.2f/%.2f ms\n"
            "    occupancy mean/peak %.2f/%.2f, peak active %zu, "
            "preemptions %zu, %zu steps\n",
            kvCacheModeName(mode), pages_per_mode[mi],
            static_cast<double>(arena_bytes) / (1024.0 * 1024.0),
            res[mi].tokensPerS, res[mi].ttftP50 * 1e3,
            res[mi].ttftP99 * 1e3, res[mi].tokenP50 * 1e3,
            res[mi].tokenP99 * 1e3, res[mi].occMean,
            res[mi].occPeak, res[mi].peakActive,
            res[mi].preemptions, res[mi].steps);
    }
    telemetry::setMetricsEnabled(metrics_were_on);

    double tps_ratio = res[0].tokensPerS / res[1].tokensPerS;
    double cap_ratio =
        static_cast<double>(res[0].capacityRequests) /
        static_cast<double>(res[1].capacityRequests);
    std::printf(
        "\npacked vs fp32 (same %zu-byte arena): %.2fx tokens/s, "
        "%.1fx concurrent capacity (%zu vs %zu worst-case "
        "requests)\n",
        arena_bytes, tps_ratio, cap_ratio, res[0].capacityRequests,
        res[1].capacityRequests);
    m2x_assert(cap_ratio >= 4.0,
               "packed arena concurrency multiplier %.2f below the "
               "4x acceptance floor", cap_ratio);

    JsonWriter json(args.outPath);
    json.object()
        .field("bench", "serving_runtime")
        .field("quick", quick)
        .field("hardware_threads", hardwareThreads())
        .object("serving")
        .field("model", mc.name)
        .field("layers", mc.nLayers)
        .field("d_model", mc.dModel)
        .field("workload", "poisson")
        .field("seed", seed)
        .field("requests", requests)
        .fixed("mean_gap_steps", mean_gap, 2)
        .array("prompt_tokens")
        .field(nullptr, prompt_lo)
        .field(nullptr, prompt_hi)
        .end()
        .array("gen_tokens")
        .field(nullptr, gen_lo)
        .field(nullptr, gen_hi)
        .end()
        .field("page_rows", page_rows)
        .field("arena_pages", arena_pages)
        .field("arena_bytes", arena_bytes)
        .field("max_batch", max_batch)
        .field("threads", threads)
        .field("isa", activeSimdIsaName())
        .array("modes");
    for (int mi = 0; mi < 2; ++mi) {
        const RunResult &r = res[mi];
        json.object()
            .field("kv_cache", kvCacheModeName(modes[mi]))
            .field("arena_pages", r.arenaPages)
            .sci("wall_s", r.wallS)
            .field("generated_tokens", r.generated)
            .fixed("tokens_per_s", r.tokensPerS)
            .sci("ttft_p50_s", r.ttftP50)
            .sci("ttft_p99_s", r.ttftP99)
            .sci("token_p50_s", r.tokenP50)
            .sci("token_p99_s", r.tokenP99)
            .fixed("occupancy_mean", r.occMean, 4)
            .fixed("occupancy_peak", r.occPeak, 4)
            .field("peak_active", r.peakActive)
            .field("preemptions", r.preemptions)
            .field("steps", r.steps)
            .field("high_water_pages", r.highWaterPages)
            .field("resident_bytes", r.residentBytes)
            .field("capacity_requests", r.capacityRequests)
            .end();
    }
    json.end()
        .fixed("packed_vs_fp32_tokens_per_s", tps_ratio)
        .fixed("concurrent_vs_fp32_capacity", cap_ratio)
        .end()
        .end()
        .close();
    bench::finishTrace(args);
    return 0;
}

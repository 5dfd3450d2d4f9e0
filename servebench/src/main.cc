/**
 * @file
 * servebench: drives ServingEngine over one seeded traffic mix and
 * prints every metric by name, with its unit, ending with a one-line
 * JSON result.
 *
 *   servebench --workload NAME --seed N --seconds S --trace 0|1
 *
 * The engine runs one pool lane, so all its work runs on the driving
 * thread. A pass's size is set by sample counts (loadgen.hh); a run
 * serves as many passes as --seconds holds at the workload's nominal
 * pass cost, at least one.
 * --trace 0 measures the end-to-end metrics on untraced drives of
 * every pass, timed on the process's CPU clock (drive.hh; each
 * metric is the median over the passes), and checks a fixed sample
 * of the generated tokens against single-sequence references
 * (scalar tier, and the engine's own tier) before they are
 * reported.
 * --trace 1 serves the first pass untraced and then traced, replays
 * the traced drive layer by layer (replay.hh), runs the roofline
 * probes, and reports the per-layer metrics with the step time
 * budget. Any mismatch fails the run: the result line then reads
 * "correct": false and the exit code is 1.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "drive.hh"
#include "loadgen.hh"
#include "model/config.hh"
#include "probes.hh"
#include "replay.hh"
#include "report.hh"
#include "runtime/inference_session.hh"
#include "runtime/kv_cache.hh"
#include "runtime/serving.hh"
#include "runtime/telemetry.hh"
#include "stats.hh"
#include "util/logging.hh"

namespace {

using namespace servebench;
using m2x::Matrix;
using m2x::runtime::CacheAttendBackend;
using m2x::runtime::KvCache;
using m2x::runtime::ServingConfig;
using m2x::runtime::ServingEngine;
using m2x::runtime::SimdIsa;
using m2x::runtime::ThreadPool;
namespace telemetry = m2x::runtime::telemetry;

/** Engine constructions timed per run; setup_s is their median. */
constexpr int setupRepeats = 5;
/** Requests served once before timing (pool, arena, caches). */
constexpr size_t warmupRequests = 4;
constexpr size_t warmupTokens = 8;
/** Requests in the fixed token-match sample. */
constexpr size_t matchSample = 3;
/**
 * A run whose token_match_ratio falls below this share fails. Vector
 * tiers reassociate sums and are held to a tolerance, not to
 * bit-exactness with the scalar tier, so a greedy pick can flip at a
 * near-tie; teacher forcing keeps each flip to one position.
 */
constexpr double minTokenMatch = 0.9;

struct Options
{
    std::string workload;
    uint64_t seed = 0;
    unsigned seconds = 0;
    int trace = -1;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "servebench: %s\nusage: servebench --workload NAME "
                 "--seed N --seconds S --trace 0|1\nworkloads:",
                 msg);
    for (const WorkloadSpec &w : workloads())
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        if (i + 1 >= argc)
            usage("missing value after the last flag");
        const char *key = argv[i], *val = argv[++i];
        char *end = nullptr;
        if (std::strcmp(key, "--workload") == 0) {
            o.workload = val;
        } else if (std::strcmp(key, "--seed") == 0) {
            o.seed = std::strtoull(val, &end, 10);
            have_seed = end != val && *end == '\0';
        } else if (std::strcmp(key, "--seconds") == 0) {
            long s = std::strtol(val, &end, 10);
            if (end != val && *end == '\0' && s >= 1 && s <= 600)
                o.seconds = static_cast<unsigned>(s);
        } else if (std::strcmp(key, "--trace") == 0) {
            if (std::strcmp(val, "0") == 0 || std::strcmp(val, "1") == 0)
                o.trace = val[0] - '0';
        } else {
            usage("unknown flag");
        }
    }
    if (o.workload.empty() || !have_seed || o.seconds == 0 ||
        o.trace < 0)
        usage("--workload, --seed, --seconds (1..600) and --trace "
              "(0|1) are all required");
    return o;
}

ServingConfig
servingConfig(const WorkloadSpec &w, unsigned lanes)
{
    ServingConfig c;
    c.threads = lanes;
    c.pageRows = 16;
    c.arenaPages = w.arenaPages;
    c.maxBatch = 32;
    c.codec = w.codec;
    return c;
}

/**
 * Build the engine setupRepeats times; @p setup_s gets the median
 * construction time (CPU time, like the drives) and the last engine
 * is returned.
 */
std::unique_ptr<ServingEngine>
timedSetup(const m2x::model::ModelConfig &mc, const ServingConfig &cfg,
           double &setup_s)
{
    std::vector<double> times;
    std::unique_ptr<ServingEngine> eng;
    for (int i = 0; i < setupRepeats; ++i) {
        eng.reset();
        uint64_t t0 = cpuNanos();
        eng = std::make_unique<ServingEngine>(mc, cfg);
        times.push_back(1e-9 * static_cast<double>(cpuNanos() - t0));
    }
    setup_s = quantile(times, 0.5);
    std::printf("setup: %d engine constructions, CPU s:", setupRepeats);
    for (double t : times)
        std::printf(" %.4f", t);
    std::printf("\n");
    return eng;
}

/** Serve the first few prompts of the run once, briefly, untimed. */
void
warmUp(ServingEngine &eng, const RunInputs &in)
{
    const auto &first = in.bursts.front();
    for (size_t i = 0; i < std::min(warmupRequests, first.size()); ++i)
        eng.submit(first[i].prompt, std::min(first[i].maxNew,
                                             warmupTokens));
    eng.runToCompletion();
}

/**
 * Teacher-forced greedy match of @p got, the engine's tokens for
 * @p req, against @p model run as a single sequence over its own KV
 * cache on kernel tier @p isa -- what a one-sequence DecodeSession
 * does, without packing the weights again for every request. The
 * reference is fed the engine's tokens, and each of its greedy picks
 * is compared with the engine's next token. Returns the matching
 * positions; a token never generated never matches.
 */
size_t
teacherForcedMatches(const m2x::model::TinyTransformer &model,
                     const ServingConfig &cfg, SimdIsa isa,
                     const RequestInput &req, const std::vector<int> &got)
{
    const m2x::model::ModelConfig &mc = model.config();
    KvCache cache(mc.nLayers, mc.kvDim(), cfg.kvMode, cfg.format, isa,
                  cfg.codec);
    CacheAttendBackend backend(nullptr, nullptr);
    std::vector<size_t> positions(req.prompt.size());
    std::iota(positions.begin(), positions.end(), size_t{0});
    backend.beginChunk(cache);
    Matrix logits = model.forwardChunk(req.prompt, positions, backend);
    int want = argmaxRow(logits, logits.rows() - 1);
    KvCache *const row[] = {&cache};
    size_t matched = 0;
    for (size_t t = 0; t < std::min(req.maxNew, got.size()); ++t) {
        if (t > 0) {
            int prev = got[t - 1];
            size_t pos = cache.length();
            backend.beginRows(row);
            want = argmaxRow(
                model.forwardChunk({&prev, 1}, {&pos, 1}, backend), 0);
        }
        matched += got[t] == want;
    }
    return matched;
}

/**
 * The output checks of a --trace 0 run, over a fixed, evenly spaced
 * sample of the first pass's requests: token_match_ratio against a
 * scalar-tier model, and an exact match of the first sampled request
 * against the engine's own packed weights run as a single sequence
 * (batched serving == single-sequence decode, the runtime's own
 * oracle).
 */
struct TokenChecks
{
    double scalarMatch = 0.0;
    bool sameTierExact = false;
};

TokenChecks
checkTokens(const m2x::model::ModelConfig &mc, const ServingConfig &cfg,
            const RunInputs &in, const ServingEngine &eng,
            const DriveLog &run)
{
    m2x::model::TinyTransformer scalar(mc);
    scalar.rebuild(m2x::runtime::packedLinearFactory(
        cfg.format, nullptr, nullptr, SimdIsa::Scalar, cfg.codec));
    std::vector<const RequestInput *> reqs;
    for (const auto &burst : in.bursts)
        for (const RequestInput &r : burst)
            reqs.push_back(&r);
    TokenChecks c;
    size_t matched = 0, total = 0;
    for (size_t k = 0; k < matchSample; ++k) {
        size_t local = k * reqs.size() / matchSample;
        const std::vector<int> &got = eng.generated(run.reqs[local].id);
        matched += teacherForcedMatches(scalar, cfg, SimdIsa::Scalar,
                                        *reqs[local], got);
        total += reqs[local]->maxNew;
        if (k == 0)
            c.sameTierExact =
                teacherForcedMatches(eng.model(), cfg, cfg.isa,
                                     *reqs[local], got) ==
                reqs[local]->maxNew;
    }
    c.scalarMatch = static_cast<double>(matched) /
                    static_cast<double>(total);
    return c;
}

/** What a run reports on its result line. */
struct Outcome
{
    uint64_t attempted = 0, failed = 0;
    std::vector<Metric> metrics;
    std::string failure; //!< the failed check; empty when correct
};

Outcome
fail(const std::string &why, uint64_t sent, uint64_t failed)
{
    return {std::max<uint64_t>(sent, 1), failed, {}, why};
}

Outcome
runEndToEnd(const WorkloadSpec &w, const m2x::model::ModelConfig &mc,
            const ServingConfig &cfg, const std::vector<RunInputs> &passes,
            ServingEngine &eng, double setup_s)
{
    std::vector<DriveLog> runs;
    std::vector<Latencies> lats;
    std::vector<double> wall_s;
    size_t sent = 0, failed = 0;
    for (const RunInputs &in : passes) {
        uint64_t t0 = telemetry::nowNanos();
        runs.push_back(drive(eng, in, false, Clock::Cpu));
        wall_s.push_back(
            1e-9 * static_cast<double>(telemetry::nowNanos() - t0));
        lats.push_back(latencies(w, runs.back()));
        sent += lats.back().sent;
        failed += lats.back().failed();
    }
    RunContext ctx;
    ctx.setupS = setup_s;
    ctx.peakRssBytes = static_cast<double>(peakRssBytes());
    std::printf("requests: %zu sent, %zu succeeded, %zu failed "
                "(requests_failed_ratio %.6g)\n",
                sent, sent - failed, failed,
                static_cast<double>(failed) / static_cast<double>(sent));
    for (size_t p = 0; p < passes.size(); ++p) {
        size_t n_ttft = lats[p].ttftS.size(), n_itl = runs[p].itlS.size();
        std::printf("pass %zu: %zu TTFT samples (%zu beyond p90, "
                    "largest %.4f s), %zu token gaps (%zu beyond p99, "
                    "largest %.4f s), submit lateness p99 %.6f s, "
                    "engine busy %.4f CPU s of a %.4f s span (%.4f s "
                    "of wall time)\n",
                    p, n_ttft, samplesBeyond(n_ttft, 0.9),
                    quantile(lats[p].ttftS, 1.0), n_itl,
                    samplesBeyond(n_itl, 0.99),
                    quantile(runs[p].itlS, 1.0),
                    quantile(runs[p].lateS, 0.99), runs[p].stepS,
                    runs[p].busySpanS, wall_s[p]);
        if (!percentileSupported(n_ttft, 0.9) ||
            !percentileSupported(n_itl, 0.99))
            return fail("too few samples for ttft_p90_s / itl_p99_s",
                        sent, failed);
    }

    uint64_t t_check = telemetry::nowNanos();
    TokenChecks checks = checkTokens(mc, cfg, passes[0], eng, runs[0]);
    ctx.tokenMatch = checks.scalarMatch;
    std::printf("token checks against the single-sequence references "
                "took %.1f s\n",
                1e-9 * static_cast<double>(telemetry::nowNanos() -
                                           t_check));
    std::vector<std::vector<Metric>> per_pass;
    for (size_t p = 0; p < passes.size(); ++p)
        per_pass.push_back(endToEndMetrics(runs[p], lats[p], ctx));
    std::vector<Metric> ms = medianOverPasses(per_pass);
    printMetrics("end-to-end metrics (untraced drives; median over "
                 "passes):",
                 ms, per_pass);
    std::printf("slo limits: ttft <= %.3f s from the due time, largest "
                "token gap <= %.3f s\n",
                w.ttftLimitS, w.gapLimitS);
    if (!checks.sameTierExact)
        return fail(m2x::strFormat(
                        "batched serving differs from a single-sequence "
                        "run of the same model on the %s tier",
                        m2x::runtime::simdIsaName(cfg.isa)),
                    sent, failed);
    if (ctx.tokenMatch < minTokenMatch)
        return fail(m2x::strFormat("token_match_ratio %.4f below %.2f "
                                   "against the scalar reference",
                                   ctx.tokenMatch, minTokenMatch),
                    sent, failed);
    return {sent, failed, ms, ""};
}

Outcome
runTraced(const WorkloadSpec &w, const m2x::model::ModelConfig &mc,
          const ServingConfig &cfg, const RunInputs &in,
          ServingEngine &eng)
{
    DriveLog plain = drive(eng, in, false);
    size_t first_id = eng.requestCount();
    DriveLog run = drive(eng, in, true);
    Latencies lat = latencies(w, run);

    for (size_t i = 0; i < run.reqs.size(); ++i)
        if (eng.generated(run.reqs[i].id) !=
            eng.generated(plain.reqs[i].id))
            return fail(m2x::strFormat("request %zu: traced and "
                                       "untraced drives generated "
                                       "different tokens", i),
                        lat.sent, lat.failed());
    ReplayResult rr = replay(mc, cfg, in, run, first_id);
    if (!rr.matched)
        return fail("replay diverged from the engine: " + rr.mismatch,
                    lat.sent, lat.failed());
    std::printf("replay: %zu tokens and %zu steps match the engine "
                "token for token and page for page\n",
                rr.tokensChecked, run.steps.size());
    uint64_t submit_ns = 0;
    for (const auto &[s0, s1] : run.submitSpans)
        submit_ns += s1 - s0;
    std::printf("submit(): %zu calls, %.6f s in all (outside the step "
                "budget)\n",
                run.submitSpans.size(),
                1e-9 * static_cast<double>(submit_ns));

    Probes probes;
    {
        ThreadPool pool(cfg.threads);
        probes.triadGbPerS = streamTriadGbPerS(pool);
        probes.fmaGflops = fmaPeakGflops(pool);
    }
    std::vector<Metric> ms = perLayerMetrics(
        w, cfg, plain, run, rr,
        static_cast<double>(eng.arena().residentBytes()), probes);
    printStepBudget(stepBudget(run, rr), rr, run.steps.size());
    printRoofline(ms, probes, cfg.threads);
    printMetrics("per-layer metrics (traced drive + replay):", ms);
    return {lat.sent, lat.failed(), ms, ""};
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);
    const WorkloadSpec *w = findWorkload(opt.workload);
    if (!w)
        usage("unknown workload");
    // One lane: a fan-out across vCPUs of a shared host waits for
    // the slowest of them every step, and the CPU clock is a latency
    // only when one thread does all the work.
    const unsigned lanes = 1;
    const m2x::model::ModelConfig mc = m2x::model::llama2_7b();
    const ServingConfig cfg = servingConfig(*w, lanes);
    const std::vector<RunInputs> passes = generateInputs(
        *w, opt.seed, mc.vocab, passCount(*w, opt.seconds));
    size_t requests = 0;
    for (const RunInputs &in : passes)
        requests += in.requestCount();

    std::printf("servebench workload=%s seed=%llu seconds=%u trace=%d\n"
                "  why: %s\n"
                "  model %s (%u layers, d_model %u), %u lanes, isa %s, "
                "codec %s, arena %zu pages, max batch %zu\n"
                "  inputs: %zu requests in %zu pass(es), digest %s\n",
                w->name, static_cast<unsigned long long>(opt.seed),
                opt.seconds, opt.trace, w->why, mc.name.c_str(),
                mc.nLayers, mc.dModel, lanes,
                m2x::runtime::simdIsaName(cfg.isa),
                m2x::packedCodecName(cfg.codec), cfg.arenaPages,
                cfg.maxBatch, requests, passes.size(),
                digestHex(inputDigest(passes)).c_str());
    std::fflush(stdout);

    uint64_t t0 = telemetry::nowNanos();
    double setup_s = 0.0;
    std::unique_ptr<ServingEngine> eng = timedSetup(mc, cfg, setup_s);
    warmUp(*eng, passes[0]);
    std::printf("set-up and warm-up took %.1f s\n",
                1e-9 * static_cast<double>(telemetry::nowNanos() - t0));
    // The traced run serves the first pass; per-layer metrics have
    // no bound, so one pass is enough to split the time by layer.
    Outcome out = opt.trace
                      ? runTraced(*w, mc, cfg, passes[0], *eng)
                      : runEndToEnd(*w, mc, cfg, passes, *eng, setup_s);
    std::printf("run took %.1f s\n",
                1e-9 * static_cast<double>(telemetry::nowNanos() - t0));
    bool correct = out.failure.empty();
    if (!correct) {
        std::printf("CHECK FAILED: %s\n", out.failure.c_str());
        std::fflush(stdout);
        std::fprintf(stderr, "servebench: CHECK FAILED: %s\n",
                     out.failure.c_str());
    }
    std::printf("%s\n", resultJson(correct, out.attempted, out.failed,
                                   out.metrics)
                            .c_str());
    return correct ? 0 : 1;
}

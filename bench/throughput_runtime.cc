/**
 * @file
 * Packed-domain runtime throughput: online activation packing
 * (functional codec vs the fast-path encoder, per ISA tier), packed
 * GEMM (per ISA kernel tier, the cache-blocked panel driver, plus
 * decode-sized M = 1 and 4 rows at 1 thread) and
 * PackedLinear forward vs the reference quantized path — with the
 * quantize/GEMM wall-time split — at several shapes and thread
 * counts (1/2/4/8 capped at the hardware width), plus a
 * per-block-size MC/KC/NC sweep, a whole-model packed forward (a
 * TinyTransformer rebuilt through packedLinearFactory) and an
 * autoregressive decode run (tokens/s and resident KV bytes
 * per token, packed M2XFP cache vs the fp32-cache oracle
 * baseline). Writes the machine-readable BENCH_runtime.json — the
 * repo's perf trajectory point for the execution runtime, including
 * which SIMD tier ran — which tools/check_bench_regression.py
 * compares against the committed baseline in CI.
 *
 * Numerical verification precedes every timing loop: the scalar
 * GEMM tier must be bit-exact against matmulNt over the unpacked
 * operands, vector GEMM tiers within 1e-6 relative of it, and every
 * encoder tier byte-identical to the functional packer.
 *
 * Thread counts are limited to what the machine can actually run in
 * parallel: on a 1-hardware-thread box multi-thread rows measure
 * nothing but scheduler noise, so only the 1-thread rows are
 * emitted (hardware_threads in the JSON records the truth).
 *
 * The decode and cross_format sections run a fixed batch through the
 * ServingEngine with the telemetry metrics registry enabled: decode
 * time is the sum of the `serving.step_ns` histogram, and the decode
 * JSON gains `step_latency_p50/p95/p99_s` plus thread-pool
 * busy-time/utilization per mode (see docs/OBSERVABILITY.md). The
 * earlier sections run with telemetry in its default (off) state so
 * their rows keep measuring the uninstrumented hot path.
 *
 * Usage: throughput_runtime [--quick] [--out PATH] [--trace PATH]
 *   --quick  one small shape, short timing windows (CI smoke)
 *   --out    output path (default BENCH_runtime.json)
 *   --trace  also collect a Chrome trace_event JSON of the run
 *            (equivalent to M2X_TRACE=PATH; load it in Perfetto)
 */

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "core/m2xfp.hh"
#include "gemm/gemm.hh"
#include "model/config.hh"
#include "model/transformer.hh"
#include "runtime/inference_session.hh"
#include "runtime/kv_cache.hh"
#include "runtime/packed_gemm.hh"
#include "runtime/packed_gemm_kernels.hh"
#include "runtime/packed_linear.hh"
#include "runtime/serving.hh"
#include "runtime/simd.hh"
#include "runtime/telemetry.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace {

using namespace m2x;
using namespace m2x::runtime;
using bench::hardwareThreads;
using bench::JsonWriter;
using bench::Stopwatch;

Matrix
randomMatrix(size_t r, size_t c, uint64_t seed, double dof)
{
    Matrix m(r, c);
    Rng rng(seed);
    for (auto &v : m.flat())
        v = static_cast<float>(rng.studentT(dof));
    return m;
}

/** One timing window: seconds per call over @p reps calls. */
template <typename F>
double
windowSeconds(F &&fn, int reps)
{
    Stopwatch sw;
    for (int i = 0; i < reps; ++i)
        fn();
    return sw.seconds() / reps;
}

/**
 * Repetition count whose window just reaches @p min_s. Runs the
 * workload while calibrating, so it doubles as warm-up (decode
 * tables, allocator, pool); @p first_s gets the calibrating window's
 * per-call seconds.
 */
template <typename F>
int
calibrateReps(F &&fn, double min_s, double *first_s = nullptr)
{
    fn(); // warm up
    int reps = 1;
    for (;;) {
        double t = windowSeconds(fn, reps) * reps;
        if (t >= min_s) {
            if (first_s)
                *first_s = t / reps;
            return reps;
        }
        int grow = t <= 1e-9
                       ? reps * 16
                       : static_cast<int>(std::ceil(
                             static_cast<double>(reps) * 1.3 *
                             min_s / t));
        reps = std::max(reps + 1, grow);
    }
}

/**
 * Seconds per call, measured over an adaptive repetition count.
 * Returns the fastest of three >= min_s windows: scheduler and
 * frequency noise on a shared machine only ever slows a window down,
 * so the minimum is the estimator closest to the true cost — and the
 * one that keeps same-run ratios (speedup_vs_ref_gemm,
 * packed_vs_fp32) stable enough to gate on.
 */
template <typename F>
double
timeIt(F &&fn, double min_s)
{
    double best;
    int reps = calibrateReps(fn, min_s, &best);
    for (int w = 0; w < 2; ++w)
        best = std::min(best, windowSeconds(fn, reps));
    return best;
}

double
gflops(size_t m, size_t n, size_t k, double seconds)
{
    return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
           static_cast<double>(k) / seconds * 1e-9;
}

struct Shape
{
    size_t m, n, k;
};

void
requireBitExact(const Matrix &got, const Matrix &want,
                const char *what)
{
    m2x_assert(got.sameShape(want), "%s shape mismatch", what);
    for (size_t i = 0; i < want.size(); ++i)
        m2x_assert(got.flat()[i] == want.flat()[i],
                   "%s not bit-exact at element %zu", what, i);
}

void
requireClose(const Matrix &got, const Matrix &want, double rel,
             const char *what)
{
    m2x_assert(got.sameShape(want), "%s shape mismatch", what);
    for (size_t i = 0; i < want.size(); ++i) {
        double g = got.flat()[i], w = want.flat()[i];
        double tol = rel * std::max(1.0, std::abs(w));
        m2x_assert(std::abs(g - w) <= tol,
                   "%s outside tolerance at element %zu "
                   "(got %g want %g)", what, i, g, w);
    }
}

/** Hold @p got to the contract of the tier that produced it. */
void
requireMatch(const Matrix &got, const Matrix &want, SimdIsa isa,
             double rel, const char *what)
{
    if (isa == SimdIsa::Scalar)
        requireBitExact(got, want, what);
    else
        requireClose(got, want, rel, what);
}

/**
 * Thread counts worth measuring: the 1/2/4/8 ladder plus the machine
 * width, but never more lanes than the hardware has — an
 * oversubscribed row reports contention, not scaling, so a
 * 1-hardware-thread box honestly emits only 1-thread rows.
 */
std::vector<unsigned>
threadCounts(bool quick)
{
    unsigned hw = hardwareThreads();
    std::vector<unsigned> candidates =
        quick ? std::vector<unsigned>{1, 4}
              : std::vector<unsigned>{1, 2, 4, 8};
    std::vector<unsigned> counts;
    for (unsigned c : candidates)
        if (c <= hw)
            counts.push_back(c);
    if (counts.empty())
        counts.push_back(1);
    if (hw > 1 &&
        std::find(counts.begin(), counts.end(), hw) == counts.end())
        counts.push_back(hw);
    return counts;
}

void
requireStreamsEqual(const PackedM2xfpTensor &got,
                    const PackedM2xfpTensor &want, const char *what)
{
    m2x_assert(got.elementStream() == want.elementStream() &&
               got.scaleStream() == want.scaleStream() &&
               got.metadataStream() == want.metadataStream(),
               "%s streams differ from the functional packer", what);
}

/** What runFixedBatch measured. */
struct FixedBatchRun
{
    double prefillS = 0.0; //!< the last request's TTFT
    double decodeS = 0.0;  //!< sum of serving.step_ns
    double p50S = 0.0, p95S = 0.0, p99S = 0.0; //!< step latency
    double poolBusyS = 0.0; //!< lane busy time over the steps
    double attendS = 0.0;   //!< attend time, prefill included
    size_t kvTokens = 0;    //!< cached tokens at the last step
    size_t kvBytes = 0;     //!< their row-granular K/V bytes
};

/**
 * A fixed batch through the ServingEngine: @p batch random prompts
 * of @p prompt_tokens, all submitted before the first step() into an
 * arena sized for every row they will cache, each generating
 * @p decode_steps + 1 tokens. Step 1 prefills the whole batch (the
 * first tokens), then every step advances all of it by one token.
 * Runs with the metrics registry on, zeroed once the last prefill
 * has produced its token, so the step histogram and the lane busy
 * counters describe the decode steps alone.
 */
FixedBatchRun
runFixedBatch(const model::ModelConfig &mc, ServingConfig cfg,
              size_t batch, size_t prompt_tokens, size_t decode_steps,
              uint64_t seed)
{
    // The last generated token is never fed back.
    size_t rows = prompt_tokens + decode_steps;
    cfg.arenaPages = batch * 2 * mc.nLayers *
                     KvPageArena::pagesForRows(rows, cfg.pageRows);
    cfg.admitFreeFraction = 0.0;
    ServingEngine eng(mc, cfg);
    Rng rng(seed);
    for (size_t b = 0; b < batch; ++b) {
        std::vector<int> prompt(prompt_tokens);
        for (auto &t : prompt)
            t = static_cast<int>(rng.uniformInt(mc.vocab));
        eng.submit(std::move(prompt), decode_steps + 1);
    }
    bool metrics_were_on = telemetry::metricsEnabled();
    telemetry::setMetricsEnabled(true);
    auto &reg = telemetry::MetricRegistry::global();
    size_t last = batch - 1;
    bool zeroed = false;
    eng.onToken([&](size_t id, int, bool) {
        if (id == last && !zeroed) {
            reg.reset();
            zeroed = true;
        }
    });
    eng.runToCompletion();
    m2x_assert(eng.preemptionCount() == 0 &&
                   eng.stepCount() == decode_steps,
               "fixed batch preempted %zu times over %zu steps "
               "(want 0 over %zu)",
               eng.preemptionCount(), eng.stepCount(), decode_steps);
    const telemetry::Histogram *sh =
        reg.findHistogram("serving.step_ns");
    m2x_assert(sh && sh->count() == decode_steps,
               "serving.step_ns histogram missing or miscounted");

    FixedBatchRun r;
    r.prefillS = eng.stats(last).ttftSeconds();
    r.decodeS = 1e-9 * static_cast<double>(sh->sum());
    r.p50S = 1e-9 * sh->quantile(0.50);
    r.p95S = 1e-9 * sh->quantile(0.95);
    r.p99S = 1e-9 * sh->quantile(0.99);
    r.poolBusyS = 1e-9 * static_cast<double>(
                             reg.counterSumByPrefix("pool.lane"));
    r.attendS = eng.attendSeconds();
    // Row-granular, as KvCache::totalBytes(): K + V rows per layer.
    r.kvTokens = batch * rows;
    r.kvBytes = r.kvTokens * 2 * mc.nLayers *
                eng.arena().pageBytes() / eng.arena().pageRows();
    telemetry::setMetricsEnabled(metrics_were_on);
    return r;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bench::RuntimeBenchArgs args =
        bench::parseRuntimeBenchArgs(argc, argv, "BENCH_runtime.json");
    const bool quick = args.quick;

    bench::banner("RUNTIME", "packed-domain execution throughput");
    double min_s = quick ? 0.02 : 0.2;
    // The quick shape is one of the full-run shapes so the smoke
    // rows match the committed baseline's section/shape/isa/threads
    // keys and check_bench_regression.py can compare them.
    std::vector<Shape> shapes =
        quick ? std::vector<Shape>{{16, 192, 192}}
              : std::vector<Shape>{{16, 192, 192},
                                   {64, 512, 192},
                                   {64, 192, 512},
                                   {128, 512, 512},
                                   {512, 512, 512}};
    // The GEMM section adds decode-sized shapes (M = 1 and 4: one
    // serving step's rows through a linear layer), timed at 1 thread
    // only — there the W panel decode, not the FMA sweep, is most of
    // the GEMM.
    const size_t decode_sized_m = 4;
    std::vector<Shape> gemm_shapes = shapes;
    if (!quick)
        gemm_shapes.insert(gemm_shapes.end(),
                           {{1, 192, 192}, {4, 192, 192},
                            {1, 512, 192}, {4, 512, 192},
                            {1, 192, 512}, {4, 192, 512}});
    std::vector<unsigned> counts = threadCounts(quick);
    std::vector<SimdIsa> isas = supportedSimdIsas();

    std::printf("SIMD dispatch: active %s (supported:",
                activeSimdIsaName());
    for (SimdIsa isa : isas)
        std::printf(" %s", simdIsaName(isa));
    std::printf(")\n\n");

    JsonWriter json(args.outPath);
    json.object()
        .field("bench", "throughput_runtime")
        .field("quick", quick)
        .field("hardware_threads", hardwareThreads())
        .field("default_threads", ThreadPool::defaultThreads())
        .object("simd")
        .field("active", activeSimdIsaName())
        .array("supported");
    for (SimdIsa isa : isas)
        json.field(nullptr, simdIsaName(isa));
    json.end().end().array("gemm");

    ElemEmQuantizer aq = makeM2xfpActivationQuantizer();
    SgEmQuantizer wq = makeM2xfpWeightQuantizer();

    for (size_t si = 0; si < gemm_shapes.size(); ++si) {
        const Shape &sh = gemm_shapes[si];
        Matrix a = randomMatrix(sh.m, sh.k, 10 + si, 4.0);
        Matrix w = randomMatrix(sh.n, sh.k, 20 + si, 6.0);
        PackedM2xfpTensor pa =
            PackedM2xfpTensor::packActivations(a, aq);
        PackedM2xfpTensor pw = PackedM2xfpTensor::packWeights(w, wq);
        Matrix a_deq = pa.unpackActivations(aq);
        Matrix w_deq = pw.unpackWeights(wq);

        // Verify before timing: the scalar tier is the bit-exact
        // oracle, every vector tier is held to 1e-6 relative.
        Matrix ref_out = matmulNt(a_deq, w_deq);
        for (SimdIsa isa : isas)
            requireMatch(packedMatmulNt(pa, pw, nullptr, isa),
                         ref_out, isa, 1e-6, "packed GEMM");

        // Reference: dense GEMM on already-dequantized operands.
        double ref_s =
            timeIt([&] { matmulNt(a_deq, w_deq); }, min_s);
        // Storage-codec path the repo had before this runtime:
        // unpack both operands, then dense GEMM.
        double unpack_s = timeIt(
            [&] {
                matmulNt(pa.unpackActivations(aq),
                         pw.unpackWeights(wq));
            },
            min_s);

        std::printf("GEMM %zux%zux%zu  ref %.1f GF  unpack+ref "
                    "%.1f GF\n",
                    sh.m, sh.n, sh.k,
                    gflops(sh.m, sh.n, sh.k, ref_s),
                    gflops(sh.m, sh.n, sh.k, unpack_s));

        size_t dense_a = sh.m * sh.k * sizeof(float);
        size_t dense_w = sh.n * sh.k * sizeof(float);
        json.object()
            .field("m", sh.m)
            .field("n", sh.n)
            .field("k", sh.k)
            .field("bytes_packed_a", pa.totalBytes())
            .field("bytes_packed_w", pw.totalBytes())
            .field("bytes_dense_a", dense_a)
            .field("bytes_dense_w", dense_w)
            .fixed("bits_per_element", pw.bitsPerElement())
            .sci("ref_gemm_s", ref_s)
            .fixed("ref_gemm_gflops", gflops(sh.m, sh.n, sh.k, ref_s))
            .sci("unpack_gemm_s", unpack_s)
            .array("results");

        // Indexed by SimdIsa: [scalar, avx2, avx512].
        double single_thread_s[3] = {0.0, 0.0, 0.0};
        for (SimdIsa isa : isas) {
            for (unsigned tc : counts) {
                if (sh.m <= decode_sized_m && tc != 1)
                    continue;
                ThreadPool pool(tc);
                double s = timeIt(
                    [&] { packedMatmulNt(pa, pw, &pool, isa); },
                    min_s);
                if (tc == 1)
                    single_thread_s[static_cast<size_t>(isa)] = s;
                std::printf("  packed/%-6s @%2u threads: %6.1f GF  "
                            "(%.2fx ref, %.2fx unpack+ref)\n",
                            simdIsaName(isa), tc,
                            gflops(sh.m, sh.n, sh.k, s), ref_s / s,
                            unpack_s / s);
                json.object()
                    .field("isa", simdIsaName(isa))
                    .field("threads", tc)
                    .sci("packed_gemm_s", s)
                    .fixed("gflops", gflops(sh.m, sh.n, sh.k, s))
                    .fixed("speedup_vs_ref_gemm", ref_s / s)
                    .fixed("speedup_vs_unpack_gemm", unpack_s / s)
                    .end();
            }
        }
        json.end();
        for (SimdIsa isa : {SimdIsa::Avx2, SimdIsa::Avx512}) {
            double s = single_thread_s[static_cast<size_t>(isa)];
            if (s <= 0.0)
                continue;
            std::string name = simdIsaName(isa);
            std::printf("  %s vs scalar @1 thread: %.2fx\n",
                        name.c_str(), single_thread_s[0] / s);
            json.fixed((name + "_vs_scalar_1t").c_str(),
                       single_thread_s[0] / s);
        }
        json.end();
    }

    // Per-block-size sweep: the blocked driver's MC/KC/NC space on
    // the best available tier at 1 thread — the data behind the
    // per-ISA default blocking choices.
    json.end().object("gemm_block_sweep");
    {
        Shape sw = quick ? Shape{16, 192, 192}
                         : Shape{512, 512, 512};
        SimdIsa sweep_isa = isas.back();
        Matrix a = randomMatrix(sw.m, sw.k, 70, 4.0);
        Matrix w = randomMatrix(sw.n, sw.k, 71, 6.0);
        PackedM2xfpTensor spa =
            PackedM2xfpTensor::packActivations(a, aq);
        PackedM2xfpTensor spw =
            PackedM2xfpTensor::packWeights(w, wq);
        struct Cfg
        {
            size_t mc, kc, nc;
        };
        std::vector<Cfg> cfgs =
            quick ? std::vector<Cfg>{{32, 128, 32}, {64, 256, 64}}
                  : std::vector<Cfg>{{32, 128, 32},
                                     {64, 256, 64},
                                     {128, 256, 128},
                                     {256, 256, 256},
                                     {128, 512, 256}};
        ThreadPool sweep_pool(1);
        json.field("m", sw.m)
            .field("n", sw.n)
            .field("k", sw.k)
            .field("isa", simdIsaName(sweep_isa))
            .field("threads", 1)
            .array("rows");
        Matrix sweep_out;
        for (size_t ci = 0; ci < cfgs.size(); ++ci) {
            detail::GemmBlocking blk = detail::normalizeBlocking(
                sweep_isa, cfgs[ci].mc, cfgs[ci].kc, cfgs[ci].nc);
            double s = timeIt(
                [&] {
                    detail::packedMatmulNtBlocked(
                        spa, spw, sweep_out, &sweep_pool, sweep_isa,
                        blk);
                },
                min_s);
            std::printf("block sweep mc=%3zu kc=%3zu nc=%3zu: "
                        "%6.1f GF\n",
                        blk.mc, blk.kc, blk.nc,
                        gflops(sw.m, sw.n, sw.k, s));
            json.object()
                .field("mc", blk.mc)
                .field("kc", blk.kc)
                .field("nc", blk.nc)
                .sci("gemm_s", s)
                .fixed("gflops", gflops(sw.m, sw.n, sw.k, s))
                .end();
        }
        json.end().end().array("pack_activations");
    }

    // Online activation packing: the forward hot path's encode side.
    // The functional ElemEmQuantizer packer is the baseline the
    // fast-path rows are normalized against; every fast tier is
    // verified byte-identical before any timing.
    for (size_t si = 0; si < shapes.size(); ++si) {
        const Shape &sh = shapes[si];
        Matrix a = randomMatrix(sh.m, sh.k, 50 + si, 4.0);
        PackedM2xfpTensor want =
            PackedM2xfpTensor::packActivations(a, aq);
        for (SimdIsa isa : isas)
            requireStreamsEqual(
                PackedM2xfpTensor::packActivations(a, aq, nullptr,
                                                   isa),
                want, simdIsaName(isa));

        double func_s = timeIt(
            [&] { PackedM2xfpTensor::packActivations(a, aq); },
            min_s);
        double bytes =
            static_cast<double>(sh.m * sh.k) * sizeof(float);
        std::printf("pack %zux%zu  functional %.3f GB/s\n", sh.m,
                    sh.k, bytes / func_s * 1e-9);
        json.object()
            .field("rows", sh.m)
            .field("cols", sh.k)
            .field("input_bytes", sh.m * sh.k * sizeof(float))
            .sci("functional_pack_s", func_s)
            .fixed("functional_gb_per_s", bytes / func_s * 1e-9)
            .array("results");

        // Indexed by SimdIsa: [scalar, avx2, avx512].
        double single_thread_s[3] = {0.0, 0.0, 0.0};
        for (SimdIsa isa : isas) {
            for (unsigned tc : counts) {
                if (sh.m <= decode_sized_m && tc != 1)
                    continue;
                ThreadPool pool(tc);
                PackedM2xfpTensor buf;
                double s = timeIt(
                    [&] {
                        PackedM2xfpTensor::packActivations(
                            a, aq, &pool, isa, buf);
                    },
                    min_s);
                if (tc == 1)
                    single_thread_s[static_cast<size_t>(isa)] = s;
                std::printf("  fast/%-6s @%2u threads: %6.2f GB/s "
                            "(%.2fx functional)\n",
                            simdIsaName(isa), tc, bytes / s * 1e-9,
                            func_s / s);
                json.object()
                    .field("isa", simdIsaName(isa))
                    .field("threads", tc)
                    .sci("pack_s", s)
                    .fixed("gb_per_s", bytes / s * 1e-9)
                    .fixed("speedup_vs_functional", func_s / s)
                    .end();
            }
        }
        json.end();
        if (single_thread_s[0] > 0.0)
            json.fixed("scalar_vs_functional_1t",
                       func_s / single_thread_s[0]);
        for (SimdIsa isa : {SimdIsa::Avx2, SimdIsa::Avx512}) {
            double s = single_thread_s[static_cast<size_t>(isa)];
            if (s <= 0.0)
                continue;
            std::string name = simdIsaName(isa);
            std::printf("  %s vs scalar @1 thread: %.2fx, "
                        "vs functional: %.2fx\n",
                        name.c_str(), single_thread_s[0] / s, func_s / s);
            json.fixed((name + "_vs_scalar_1t").c_str(),
                       single_thread_s[0] / s)
                .fixed((name + "_vs_functional_1t").c_str(), func_s / s);
        }
        json.end();
    }
    json.end().array("forward");

    // Layer-level forward: reference QuantizedLinear (online act
    // quantization + dense GEMM) vs PackedLinear (online packing +
    // packed GEMM on the active tier).
    for (size_t si = 0; si < shapes.size(); ++si) {
        const Shape &sh = shapes[si];
        Matrix w = randomMatrix(sh.n, sh.k, 30 + si, 6.0);
        Matrix x = randomMatrix(sh.m, sh.k, 40 + si, 4.0);
        QuantizedLinear ref_lin(
            w,
            std::make_shared<SgEmQuantizer>(
                makeM2xfpWeightQuantizer()),
            std::make_shared<ElemEmQuantizer>(
                makeM2xfpActivationQuantizer()));
        double ref_s =
            timeIt([&] { ref_lin.forward(x); }, min_s);

        json.object()
            .field("m", sh.m)
            .field("n", sh.n)
            .field("k", sh.k)
            .field("isa", activeSimdIsaName())
            .sci("ref_quantized_forward_s", ref_s)
            .array("results");
        for (size_t ci = 0; ci < counts.size(); ++ci) {
            ThreadPool pool(counts[ci]);
            PackedLinear packed(w, {}, &pool);
            requireMatch(packed.forward(x), ref_lin.forward(x),
                         packed.simdIsa(), 1e-6, "packed forward");
            // Steady-state serving shape: reused workspace and
            // output buffer, with the quantize/GEMM split
            // accumulated across every timing rep.
            PackedLinear::Workspace ws;
            Matrix y;
            ForwardBreakdown bd;
            double s = timeIt(
                [&] { packed.forward(x, y, &ws, &bd); }, min_s);
            double split = static_cast<double>(bd.quantizeNanos) +
                           static_cast<double>(bd.gemmNanos);
            double qfrac =
                split > 0.0
                    ? static_cast<double>(bd.quantizeNanos) / split
                    : 0.0;
            std::printf("forward %zux%zux%zu @%2u threads: "
                        "%.2fx reference (%.0f%% quantize)\n",
                        sh.m, sh.n, sh.k, counts[ci], ref_s / s,
                        100.0 * qfrac);
            json.object()
                .field("threads", counts[ci])
                .sci("packed_forward_s", s)
                .sci("quantize_s", s * qfrac)
                .sci("gemm_s", s * (1.0 - qfrac))
                .fixed("speedup_vs_ref", ref_s / s)
                .end();
        }
        json.end().end();
    }
    json.end();

    // Whole-model forward: a zoo model whose every linear is a
    // PackedLinear behind a timing shim.
    model::ModelConfig mc = model::llama2_7b();
    if (quick) {
        mc.nLayers = 1;
        mc.vocab = 128;
    }
    size_t seq_len = quick ? 16 : 48;
    std::vector<std::vector<int>> batch(quick ? 1 : 2);
    {
        Rng rng(99);
        for (auto &seq : batch) {
            seq.resize(seq_len);
            for (auto &t : seq)
                t = static_cast<int>(rng.uniformInt(mc.vocab));
        }
    }

    model::TinyTransformer ref_model(mc);
    ref_model.rebuild(model::quantizedLinearFactory(
        [] {
            return std::make_shared<SgEmQuantizer>(
                makeM2xfpWeightQuantizer());
        },
        [] {
            return std::make_shared<ElemEmQuantizer>(
                makeM2xfpActivationQuantizer());
        }));
    double ref_model_s = timeIt(
        [&] {
            for (const auto &seq : batch)
                ref_model.forwardLogits(seq);
        },
        min_s);

    // Honors M2X_THREADS (and the machine) like every default pool.
    // The codec is pinned to the reference model's elem_em pair,
    // whatever M2X_FORMAT picks for the session-level defaults.
    unsigned model_threads = ThreadPool::defaultThreads();
    ThreadPool model_pool(model_threads);
    std::vector<std::shared_ptr<LayerStats>> stats;
    model::TinyTransformer packed_model(mc);
    packed_model.rebuild(packedLinearFactory({}, &model_pool, &stats,
                                             activeSimdIsa(),
                                             PackedCodec::ElemEm));
    auto forward_batch = [&] {
        for (const auto &seq : batch)
            packed_model.forwardLogits(seq);
    };
    // Model-level check: vector-tier differences pass through
    // layernorm/softmax, so the tolerance is a little looser than
    // the raw GEMM contract.
    requireMatch(packed_model.forwardLogits(batch[0]),
                 ref_model.forwardLogits(batch[0]), activeSimdIsa(),
                 1e-5, "model logits");
    double packed_model_s = timeIt(forward_batch, min_s);
    // Re-run exactly one batch on zeroed counters so the per-layer
    // stats below describe a known workload (not the verify pass and
    // timing reps above).
    size_t packed_bytes = 0, dense_bytes = 0;
    for (auto &st : stats) {
        st->reset();
        packed_bytes += st->packedBytes;
        dense_bytes += st->denseBytes;
    }
    forward_batch();

    std::printf("model %s  batch %zu x %zu tokens  @%u threads "
                "(%s): %.2fx reference, weights %zu -> %zu bytes\n",
                mc.name.c_str(), batch.size(), seq_len,
                model_threads, activeSimdIsaName(),
                ref_model_s / packed_model_s, dense_bytes,
                packed_bytes);

    json.object("model")
        .field("name", mc.name)
        .field("batch", batch.size())
        .field("seq_len", seq_len)
        .field("threads", model_threads)
        .field("isa", activeSimdIsaName())
        .sci("ref_forward_s", ref_model_s)
        .sci("packed_forward_s", packed_model_s)
        .fixed("speedup_vs_ref", ref_model_s / packed_model_s)
        .field("packed_weight_bytes", packed_bytes)
        .field("dense_weight_bytes", dense_bytes)
        .array("layers");
    for (const auto &st : stats)
        json.object()
            .field("name", st->name)
            .field("isa", st->isa)
            .field("calls", st->calls.load())
            .sci("seconds", st->seconds())
            .sci("quantize_s", st->quantizeSeconds())
            .sci("gemm_s", st->gemmSeconds())
            .fixed("gflops", st->gflops())
            .field("packed_bytes", st->packedBytes)
            .end();
    json.end().end();

    // Autoregressive decode: a fixed batch through the serving
    // engine, prefilled once and then generated token by token
    // against persistent KV caches. The fp32 cache is the
    // bit-exactness oracle (it replicates the full forward's
    // double-precision attention arithmetic); the packed cache keeps
    // K/V resident in the M2XFP streams at 4.5 bits/element and
    // fuses LUT decode into the blocked attention kernels. Parity of
    // both modes against the one-shot forward is verified on a small
    // model before any timing.
    {
        model::ModelConfig vc = model::llama2_7b();
        vc.nLayers = 1;
        vc.vocab = 128;
        std::vector<int> vtoks(12);
        {
            Rng rng(123);
            for (auto &t : vtoks)
                t = static_cast<int>(rng.uniformInt(vc.vocab));
        }
        // Prefill all but two tokens, then decode those one by one.
        auto run_split = [&](const model::TinyTransformer &m,
                             KvCacheMode mode) {
            KvCache cache(vc.nLayers, vc.kvDim(), mode);
            CacheAttendBackend backend(nullptr, nullptr);
            std::span<const int> toks(vtoks);
            size_t split = toks.size() - 2;
            Matrix all(toks.size(), vc.vocab);
            size_t t0 = 0;
            auto put = [&](const Matrix &m) {
                for (size_t r = 0; r < m.rows(); ++r, ++t0)
                    for (size_t c = 0; c < m.cols(); ++c)
                        all(t0, c) = m(r, c);
            };
            put(backend.forwardChunk(m, cache, toks.subspan(0, split)));
            KvCache *const row[] = {&cache};
            for (size_t t = split; t < toks.size(); ++t)
                put(backend.forwardRows(m, row, toks.subspan(t, 1)));
            return all;
        };
        {
            model::TinyTransformer m(vc);
            m.rebuild(packedLinearFactory());
            requireBitExact(run_split(m, KvCacheMode::Fp32),
                            m.forwardLogits(vtoks),
                            "fp32-cache decode logits");
            model::TinyTransformer ref(vc);
            ref.rebuild(packedLinearFactory());
            ref.setKvQuantizers(
                [] {
                    return std::make_shared<ElemEmQuantizer>(
                        makeM2xfpActivationQuantizer());
                },
                nullptr);
            requireClose(run_split(m, KvCacheMode::Packed),
                         ref.forwardLogits(vtoks), 1e-5,
                         "packed-cache decode logits");
        }

        model::ModelConfig dc = model::llama2_7b();
        if (quick) {
            dc.nLayers = 1;
            dc.vocab = 128;
        }
        size_t batch = quick ? 4 : 8;
        size_t prefill_tokens = quick ? 8 : 256;
        size_t decode_steps = quick ? 4 : 32;
        unsigned dec_threads = ThreadPool::defaultThreads();

        json.object("decode")
            .field("model", dc.name)
            .field("layers", dc.nLayers)
            .field("d_model", dc.dModel)
            .field("batch", batch)
            .field("prefill_tokens", prefill_tokens)
            .field("decode_steps", decode_steps)
            .field("threads", dec_threads)
            .field("isa", activeSimdIsaName())
            .array("modes");

        double tokens_per_s[2] = {0.0, 0.0}; // [fp32, packed]
        KvCacheMode modes[2] = {KvCacheMode::Fp32,
                                KvCacheMode::Packed};
        for (int mi = 0; mi < 2; ++mi) {
            KvCacheMode mode = modes[mi];
            FixedBatchRun r = runFixedBatch(
                dc, {.threads = dec_threads, .kvMode = mode}, batch,
                prefill_tokens, decode_steps, 321);
            double tps = static_cast<double>(batch * decode_steps) /
                         r.decodeS;
            tokens_per_s[mi] = tps;
            double bpt = static_cast<double>(r.kvBytes) /
                         static_cast<double>(r.kvTokens);
            double bits_per_elem =
                bpt * 8.0 / (2.0 * dc.nLayers * dc.dModel);
            double pool_util =
                r.decodeS > 0.0
                    ? r.poolBusyS / (r.decodeS * dec_threads)
                    : 0.0;

            std::printf("decode/%-6s batch %zu, %zu+%zu tokens "
                        "@%u threads: %7.1f tok/s, "
                        "%.0f KV bytes/token (%.2f bits/elem)\n"
                        "    step latency p50/p95/p99: "
                        "%.3f/%.3f/%.3f ms, pool utilization "
                        "%.0f%%\n",
                        kvCacheModeName(mode), batch,
                        prefill_tokens, decode_steps, dec_threads,
                        tps, bpt, bits_per_elem, r.p50S * 1e3,
                        r.p95S * 1e3, r.p99S * 1e3, 100.0 * pool_util);
            json.object()
                .field("kv_cache", kvCacheModeName(mode))
                .sci("prefill_s", r.prefillS)
                .sci("decode_s", r.decodeS)
                .fixed("tokens_per_s", tps)
                .sci("attend_s", r.attendS)
                .sci("step_latency_p50_s", r.p50S)
                .sci("step_latency_p95_s", r.p95S)
                .sci("step_latency_p99_s", r.p99S)
                .sci("pool_busy_s", r.poolBusyS)
                .fixed("pool_utilization", pool_util, 4)
                .field("kv_bytes", r.kvBytes)
                .fixed("kv_bytes_per_token", bpt)
                .fixed("kv_bits_per_element", bits_per_elem, 4)
                .end();
        }
        double ratio = tokens_per_s[1] / tokens_per_s[0];
        std::printf("decode packed vs fp32 cache: %.2fx tokens/s\n",
                    ratio);
        json.end().fixed("packed_vs_fp32_tokens_per_s", ratio).end();
    }

    // Long-context attend: the packed flash attend against the fp32
    // three-pass oracle at growing context lengths, measured at the
    // KvCache level (one layer, single-query decode shape, 1 thread
    // — the per-sequence serving fan-out unit). The fp32 cache holds
    // the packed codec's round-tripped rows, so both sides attend
    // the same operand values: the oracle checks the packed output
    // before timing, and packed_vs_fp32 (fp32 seconds over packed
    // seconds, both sides timed on this run) is the gated ratio.
    // Rows are keyed (context, mode, isa, threads) and the ratio
    // rows (context, window_s, isa, threads); the quick contexts are
    // a subset of the full ladder so smoke rows match the committed
    // baseline. Attend scratch must stay constant as context grows
    // 256x — asserted before the JSON is usable.
    {
        const size_t lc_d = 192;     // the llama2_7b width
        const unsigned lc_heads = 4; // headDim 48
        // Single-query attends are microseconds at the quick
        // contexts and the ratio rows feed the regression gate, so
        // quick and full runs share one window length: a quick row
        // is then keyed, and as stable, as the full-run row it is
        // compared against.
        const double lc_min_s = 0.2;
        std::vector<size_t> contexts =
            quick ? std::vector<size_t>{256, 1024}
                  : std::vector<size_t>{256, 1024, 4096, 16384,
                                        65536};
        ThreadPool pool1(1);
        Matrix lq = randomMatrix(1, lc_d, 81, 4.0);
        json.object("long_context")
            .field("d_model", lc_d)
            .field("heads", lc_heads)
            .array("rows");
        // [packed, fp32]: the packed cache encodes kv_rows on
        // append, the fp32 oracle holds their decoded values.
        KvCache caches[2] = {KvCache(1, lc_d, KvCacheMode::Packed),
                             KvCache(1, lc_d, KvCacheMode::Fp32)};
        const size_t chunk_rows = 256;
        Matrix kv_rows = randomMatrix(chunk_rows, lc_d, 82, 4.0);
        Matrix kv_deq = PackedM2xfpTensor::packActivationsCodec(
                            kv_rows, PackedCodec::ElemEm)
                            .unpackActivationsCodec();
        const Matrix *appended[2] = {&kv_rows, &kv_deq};
        size_t scratch_first[2] = {0, 0};
        std::vector<double> ratios;
        for (size_t ctx_len : contexts) {
            Matrix outs[2] = {Matrix(1, lc_d), Matrix(1, lc_d)};
            auto attend = [&](int mi) {
                caches[mi].attend(0, lq.data(), 1, ctx_len - 1,
                                  lc_heads, outs[mi].data(), &pool1);
            };
            for (int mi = 0; mi < 2; ++mi) {
                while (caches[mi].length() < ctx_len)
                    caches[mi].append(0, appended[mi]->data(),
                                      appended[mi]->data(),
                                      chunk_rows, &pool1);
                attend(mi);
            }
            // Packed flash vs the fp32 oracle on the same operand
            // values: within the model tolerance (polynomial exp and
            // accumulation association differ).
            requireClose(outs[0], outs[1], 1e-5,
                         "packed flash vs fp32 oracle attend");

            // Interleaved windows: the packed and fp32 sides run
            // back to back, so both sample the same runner regimes
            // (a neighbor stealing the core for a while slows both
            // instead of skewing one), and each side reports its
            // fastest window — the timeIt estimator, per side.
            double secs[2] = {0.0, 0.0};
            int reps[2];
            size_t scratch[2];
            for (int mi = 0; mi < 2; ++mi) {
                resetAttendScratchPeak();
                reps[mi] = calibrateReps([&] { attend(mi); }, lc_min_s);
                scratch[mi] = attendScratchPeakBytes();
                if (scratch_first[mi] == 0)
                    scratch_first[mi] = scratch[mi];
                m2x_assert(scratch[mi] <= scratch_first[mi],
                           "%s flash attend scratch grew with context "
                           "(%zu bytes at %zu vs %zu at %zu rows)",
                           kvCacheModeName(caches[mi].mode()),
                           scratch[mi], ctx_len, scratch_first[mi],
                           contexts.front());
            }
            for (int w = 0; w < 5; ++w) {
                for (int mi = 0; mi < 2; ++mi) {
                    double ws =
                        windowSeconds([&] { attend(mi); }, reps[mi]);
                    if (w == 0 || ws < secs[mi])
                        secs[mi] = ws;
                }
            }
            ratios.push_back(secs[1] / secs[0]);

            for (int mi = 0; mi < 2; ++mi) {
                const char *mode = kvCacheModeName(caches[mi].mode());
                double bpt = caches[mi].bytesPerToken();
                std::printf("long-context %-6s ctx %6zu: %8.1f "
                            "attends/s, scratch %zu B, "
                            "%.0f KV B/token\n",
                            mode, ctx_len, 1.0 / secs[mi],
                            scratch[mi], bpt);
                json.object()
                    .field("context", ctx_len)
                    .field("mode", mode)
                    .field("isa", activeSimdIsaName())
                    .field("threads", 1)
                    .fixed("window_s", lc_min_s)
                    .sci("flash_attend_s", secs[mi])
                    .fixed("attends_per_s", 1.0 / secs[mi])
                    .field("scratch_bytes", scratch[mi])
                    .fixed("kv_bytes_per_token", bpt)
                    .end();
            }
            std::printf("long-context packed vs fp32 ctx %6zu: "
                        "%.2fx\n",
                        ctx_len, ratios.back());
        }
        // Same-run packed-vs-fp32 attend ratio per context (resident
        // decode bandwidth is what separates them at long context).
        json.end().array("packed_vs_fp32");
        for (size_t ci = 0; ci < contexts.size(); ++ci)
            json.object()
                .field("context", contexts[ci])
                .fixed("window_s", lc_min_s)
                .field("isa", activeSimdIsaName())
                .field("threads", 1)
                .fixed("ratio", ratios[ci])
                .end();
        json.end().end();
    }

    // Cross-format runtime: every registered codec through the
    // packed GEMM and a fixed-batch serving decode. Two
    // numbers per format: the packed GEMM's accuracy against the
    // exact fp32 product (the format's quantization error — kernel
    // parity against each format's own functional pipeline is
    // verified first, and exhaustively in cross_format_parity_test),
    // and decode tokens/s with the format's runtime kernels (per-ISA
    // or generic, as the codec seam dispatches them) in the linear
    // layers and KV pages. Rows are emitted in ascending rel_rmse
    // order, so the committed JSON records the accuracy ranking of
    // the formats — the bench-smoke gate asserts the ordering and
    // positive throughput for >= 3 formats.
    {
        Matrix ga = randomMatrix(24, 512, 71, 4.0);
        Matrix gw = randomMatrix(32, 512, 72, 6.0);
        Matrix exact = matmulNt(ga, gw);

        model::ModelConfig cc = model::llama2_7b();
        cc.nLayers = 1;
        cc.vocab = 128;
        size_t cf_batch = 2;
        size_t cf_prefill = quick ? 8 : 32;
        size_t cf_steps = quick ? 4 : 16;
        unsigned cf_threads = ThreadPool::defaultThreads();

        struct FormatRow
        {
            PackedCodec codec;
            double rmse, rel_rmse, tps, bits;
        };
        std::vector<FormatRow> rows;
        for (PackedCodec codec : allPackedCodecs()) {
            PackedM2xfpTensor pa =
                PackedM2xfpTensor::packActivationsCodec(ga, codec);
            PackedM2xfpTensor pw =
                PackedM2xfpTensor::packWeightsCodec(gw, codec);
            Matrix got = packedMatmulNt(pa, pw);
            requireMatch(got,
                         matmulNt(pa.unpackActivationsCodec(),
                                  pw.unpackWeightsCodec()),
                         activeSimdIsa(), 1e-6,
                         "cross-format gemm parity");
            double se = 0.0, ref2 = 0.0;
            for (size_t i = 0; i < exact.size(); ++i) {
                double d = got.flat()[i] - exact.flat()[i];
                se += d * d;
                ref2 += static_cast<double>(exact.flat()[i]) *
                        static_cast<double>(exact.flat()[i]);
            }
            double rmse =
                std::sqrt(se / static_cast<double>(exact.size()));
            double rel_rmse = std::sqrt(se / ref2);

            FixedBatchRun r = runFixedBatch(
                cc,
                {.threads = cf_threads,
                 .kvMode = KvCacheMode::Packed,
                 .codec = codec},
                cf_batch, cf_prefill, cf_steps, 777);
            double tps =
                static_cast<double>(cf_batch * cf_steps) / r.decodeS;
            rows.push_back(
                {codec, rmse, rel_rmse, tps,
                 packedCodecInfo(codec).bitsPerElement});
            std::printf("cross-format %-9s: rel_rmse %.5f, "
                        "%7.1f tok/s (%.2f bits/elem)\n",
                        packedCodecName(codec), rel_rmse, tps,
                        packedCodecInfo(codec).bitsPerElement);
        }
        std::sort(rows.begin(), rows.end(),
                  [](const FormatRow &a, const FormatRow &b) {
                      return a.rel_rmse < b.rel_rmse;
                  });
        json.array("cross_format");
        for (const FormatRow &row : rows)
            json.object()
                .field("format", packedCodecName(row.codec))
                .fixed("bits_per_element", row.bits, 4)
                .sci("gemm_rmse_vs_fp32", row.rmse)
                .sci("gemm_rel_rmse_vs_fp32", row.rel_rmse)
                .fixed("decode_tokens_per_s", row.tps)
                .field("isa", activeSimdIsaName())
                .field("threads", cf_threads)
                .end();
        json.end().end();
    }
    json.close();
    bench::finishTrace(args);
    return 0;
}

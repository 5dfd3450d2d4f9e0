#include "report.hh"

#include <algorithm>
#include <cstdio>

namespace servebench {

namespace {

double
safeDiv(double a, double b)
{
    return b > 0.0 ? a / b : 0.0;
}

double
ns(uint64_t v)
{
    return 1e-9 * static_cast<double>(v);
}

} // anonymous namespace

Latencies
latencies(const WorkloadSpec &w, const DriveLog &run)
{
    Latencies l;
    for (const RequestOutcome &o : run.reqs) {
        ++l.sent;
        if (!o.succeeded)
            continue; // a failed request misses the SLO
        ++l.succeeded;
        double ttft = ns(o.firstTokenNs - o.dueNs);
        l.ttftS.push_back(ttft);
        l.sloMet += ttft <= w.ttftLimitS && o.maxGapS <= w.gapLimitS;
    }
    return l;
}

std::vector<Metric>
endToEndMetrics(const DriveLog &run, const Latencies &lat,
                const RunContext &ctx)
{
    return {
        {"setup_s", ctx.setupS, "s"},
        {"tokens_per_s", run.tokensPerS(), "tok/s"},
        {"ttft_p50_s", quantile(lat.ttftS, 0.50), "s"},
        {"ttft_p90_s", quantile(lat.ttftS, 0.90), "s"},
        {"itl_p50_s", quantile(run.itlS, 0.50), "s"},
        {"itl_p99_s", quantile(run.itlS, 0.99), "s"},
        {"slo_attainment",
         safeDiv(static_cast<double>(lat.sloMet),
                 static_cast<double>(lat.sent)),
         "ratio"},
        {"token_match_ratio", ctx.tokenMatch, "ratio"},
        {"peak_rss_bytes", ctx.peakRssBytes, "bytes"},
    };
}

std::vector<Metric>
medianOverPasses(const std::vector<std::vector<Metric>> &per_pass)
{
    std::vector<Metric> out = per_pass.at(0);
    for (size_t i = 0; i < out.size(); ++i) {
        std::vector<double> v;
        for (const auto &pass : per_pass)
            v.push_back(pass.at(i).value);
        out[i].value = quantile(v, 0.5);
    }
    return out;
}

StepBudget
stepBudget(const DriveLog &traced, const ReplayResult &rr)
{
    StepBudget b;
    for (const StepTrace &st : traced.steps) {
        b.totalS += ns(st.t1 - st.t0);
        b.encodeS += ns(st.encodeNs);
        b.gemmS += ns(st.gemmNs);
        b.attendS += st.attendS;
        b.prefillS += ns(st.prefillNs);
        b.decodeS += ns(st.decodeForwardNs);
    }
    for (const PhaseWork *ph : {&rr.prefill, &rr.decode})
        b.glueS += ph->forwardS - ph->linearS - ph->attendS;
    double model = b.prefillS + b.decodeS;
    b.schedS = b.totalS - model;
    b.unattributedS = model - b.encodeS - b.gemmS - b.attendS - b.glueS;
    return b;
}

std::vector<Metric>
perLayerMetrics(const WorkloadSpec &w,
                const m2x::runtime::ServingConfig &cfg,
                const DriveLog &plain, const DriveLog &traced,
                const ReplayResult &rr, double high_water_bytes,
                const Probes &probes)
{
    std::vector<double> step_s;
    double rows = 0.0, occ_sum = 0.0;
    double occ_peak = 0.0;
    size_t decode_steps = 0, stall_steps = 0;
    for (const StepTrace &st : traced.steps) {
        step_s.push_back(ns(st.t1 - st.t0));
        occ_sum += st.occupancy;
        occ_peak = std::max(occ_peak, st.occupancy);
        if (st.decodeRows() > 0) {
            ++decode_steps;
            rows += static_cast<double>(st.decodeRows());
        }
        // Requests left waiting beside a free batch slot: the head
        // of the queue did not fit the arena.
        stall_steps += st.waiting > 0 && st.decodeRows() < cfg.maxBatch;
    }
    std::vector<double> queue_wait;
    for (const RequestOutcome &o : traced.reqs)
        if (o.admitNs)
            queue_wait.push_back(ns(o.admitNs - o.dueNs));
    Latencies lat = latencies(w, traced);
    StepBudget b = stepBudget(traced, rr);
    const PhaseWork &pf = rr.prefill, &dc = rr.decode;
    double prefill_tokens =
        static_cast<double>(rr.freshPrefillTokens + rr.reprefillTokens);
    double steps = static_cast<double>(traced.steps.size());
    double replay_kernels = pf.encodeS + pf.gemmS + pf.attendS +
                            dc.encodeS + dc.gemmS + dc.attendS;

    return {
        {"serving.step_s.p50", quantile(step_s, 0.50), "s"},
        {"serving.step_s.p99", quantile(step_s, 0.99), "s"},
        {"serving.sched_s", b.schedS, "s"},
        {"serving.decode_rows_per_step.mean",
         safeDiv(rows, static_cast<double>(decode_steps)), "rows"},
        {"serving.queue_wait_s.p90", quantile(queue_wait, 0.90), "s"},
        {"serving.preemptions", static_cast<double>(traced.preemptions),
         "count"},
        {"serving.reprefill_tokens",
         static_cast<double>(rr.reprefillTokens), "tokens"},
        {"serving.prefill_useful_ratio",
         safeDiv(static_cast<double>(rr.freshPrefillTokens),
                 prefill_tokens),
         "ratio"},
        {"serving.admit_stall_steps", static_cast<double>(stall_steps),
         "count"},
        {"model.prefill_s", b.prefillS, "s"},
        {"model.decode_s", b.decodeS, "s"},
        {"model.glue_s", b.glueS, "s"},
        {"packed_quantize.s", pf.encodeS + dc.encodeS, "s"},
        {"packed_quantize.gb_per_s",
         1e-9 * safeDiv(pf.encodeBytes + dc.encodeBytes,
                        pf.encodeS + dc.encodeS),
         "GB/s"},
        {"packed_gemm.decode_s", dc.gemmS, "s"},
        {"packed_gemm.decode_gflops",
         1e-9 * safeDiv(dc.gemmFlops, dc.gemmS), "GFLOP/s"},
        {"packed_gemm.prefill_s", pf.gemmS, "s"},
        {"packed_gemm.prefill_gflops",
         1e-9 * safeDiv(pf.gemmFlops, pf.gemmS), "GFLOP/s"},
        {"kv_cache.step_attend_s", dc.attendS, "s"},
        {"kv_cache.step_attend_gb_per_s",
         1e-9 * safeDiv(dc.attendBytes, dc.attendS), "GB/s"},
        {"kv_cache.prefill_attend_s", pf.attendS, "s"},
        {"kv_page_arena.occupancy_mean", safeDiv(occ_sum, steps),
         "ratio"},
        {"kv_page_arena.occupancy_peak", occ_peak, "ratio"},
        {"kv_page_arena.high_water_bytes", high_water_bytes, "bytes"},
        {"kv_page_arena.pages_churned",
         static_cast<double>(rr.pagesChurned), "count"},
        {"thread_pool.utilization",
         safeDiv(ns(traced.poolBusyNs), cfg.threads * traced.stepS),
         "ratio"},
        {"step_budget.total_s", b.totalS, "s"},
        {"step_budget.encode_s", b.encodeS, "s"},
        {"step_budget.gemm_s", b.gemmS, "s"},
        {"step_budget.attend_s", b.attendS, "s"},
        {"step_budget.glue_s", b.glueS, "s"},
        {"step_budget.sched_s", b.schedS, "s"},
        {"step_budget.unattributed_s", b.unattributedS, "s"},
        {"step_budget.unattributed_share",
         safeDiv(b.unattributedS, b.totalS), "ratio"},
        {"step_budget.replay_kernel_ratio",
         safeDiv(replay_kernels, b.encodeS + b.gemmS + b.attendS),
         "ratio"},
        {"loadgen.late_p99_s", quantile(plain.lateS, 0.99), "s"},
        {"trace_overhead_ratio", safeDiv(traced.stepS, plain.stepS),
         "ratio"},
        {"probe.stream_triad_gb_per_s", probes.triadGbPerS, "GB/s"},
        {"probe.fma_peak_gflops", probes.fmaGflops, "GFLOP/s"},
        {"requests_sent", static_cast<double>(lat.sent), "count"},
        {"requests_succeeded", static_cast<double>(lat.succeeded),
         "count"},
        {"requests_failed", static_cast<double>(lat.failed()), "count"},
        {"requests_failed_ratio",
         safeDiv(static_cast<double>(lat.failed()),
                 static_cast<double>(lat.sent)),
         "ratio"},
    };
}

void
printStepBudget(const StepBudget &b, const ReplayResult &rr,
                size_t steps)
{
    std::printf("step budget over %zu traced steps (%.4f s of step() "
                "wall time; glue from the replay, the rest from the "
                "engine):\n",
                steps, b.totalS);
    const PhaseWork &pf = rr.prefill, &dc = rr.decode;
    const struct
    {
        const char *name;
        double s;
        double replayS; //!< < 0: no replayed counterpart
    } parts[] = {
        {"encode", b.encodeS, pf.encodeS + dc.encodeS},
        {"gemm", b.gemmS, pf.gemmS + dc.gemmS},
        {"attend", b.attendS, pf.attendS + dc.attendS},
        {"glue", b.glueS, -1.0},
        {"sched", b.schedS, -1.0},
        {"unattributed", b.unattributedS, -1.0},
    };
    for (const auto &p : parts) {
        std::printf("  %-14s %10.4f s  %6.2f%%", p.name, p.s,
                    100.0 * safeDiv(p.s, b.totalS));
        if (p.replayS >= 0.0)
            std::printf("   (replay %.4f s)", p.replayS);
        std::printf("\n");
    }
    std::printf("  engine model time: %.4f s prefill + %.4f s decode; "
                "replay forward: %.4f s + %.4f s\n",
                b.prefillS, b.decodeS, pf.forwardS, dc.forwardS);
}

void
printRoofline(const std::vector<Metric> &per_layer, const Probes &p,
              unsigned lanes)
{
    std::printf("roofline at %u lanes (bytes and FLOPs are computed "
                "from tensor shapes, not counted by hardware):\n",
                lanes);
    std::printf("  %-34s %9.2f GB/s\n", "probe.stream_triad_gb_per_s",
                p.triadGbPerS);
    std::printf("  %-34s %9.2f GFLOP/s\n", "probe.fma_peak_gflops",
                p.fmaGflops);
    for (const Metric &m : per_layer) {
        bool bw = m.unit == "GB/s", fl = m.unit == "GFLOP/s";
        if ((!bw && !fl) || m.name.rfind("probe.", 0) == 0)
            continue;
        std::printf("  %-34s %9.2f %-7s = %5.1f%% of the %s probe\n",
                    m.name.c_str(), m.value, m.unit.c_str(),
                    100.0 * safeDiv(m.value, bw ? p.triadGbPerS
                                                : p.fmaGflops),
                    bw ? "triad" : "FMA");
    }
}

void
printMetrics(const char *title, const std::vector<Metric> &ms,
             const std::vector<std::vector<Metric>> &per_pass)
{
    std::printf("%s\n", title);
    for (size_t i = 0; i < ms.size(); ++i) {
        std::printf("  %-36s %16.6g %-8s", ms[i].name.c_str(),
                    ms[i].value, ms[i].unit.c_str());
        if (per_pass.size() > 1) {
            std::printf(" passes:");
            for (const auto &pass : per_pass)
                std::printf(" %.6g", pass[i].value);
        }
        std::printf("\n");
    }
}

} // namespace servebench

#include "drive.hh"

#include <algorithm>
#include <cmath>
#include <ctime>

#include "runtime/telemetry.hh"
#include "util/logging.hh"

namespace servebench {

using m2x::runtime::RequestState;
using m2x::runtime::RequestStats;
using m2x::runtime::ServingEngine;
namespace telemetry = m2x::runtime::telemetry;

namespace {

/** Exact sum of a registry histogram; 0 before its first record. */
uint64_t
histogramSum(const char *name)
{
    const telemetry::Histogram *h =
        telemetry::MetricRegistry::global().findHistogram(name);
    return h ? h->sum() : 0;
}

/** Last-seen lifecycle of one live request (traced drives). */
struct Mirror
{
    RequestState state = RequestState::Queued;
    size_t preemptions = 0;
};

} // anonymous namespace

uint64_t
cpuNanos()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
           static_cast<uint64_t>(ts.tv_nsec);
}

DriveLog
drive(ServingEngine &eng, const RunInputs &in, bool traced, Clock clock)
{
    m2x_assert(!traced || clock == Clock::Wall,
               "a traced drive keeps wall time");
    const size_t n = in.requestCount();
    const size_t base = eng.requestCount();
    const size_t itl_base = eng.tokenLatencies().size();
    const size_t preempt_base = eng.preemptionCount();

    DriveLog res;
    res.reqs.resize(n);
    res.lateS.reserve(n);

    // The drive's clock, plus the idle stretches the open loop
    // skipped, so due times keep their spacing.
    const uint64_t cpu0 = cpuNanos();
    uint64_t skipped_ns = 0;
    auto now = [&] {
        return skipped_ns + (clock == Clock::Wall ? telemetry::nowNanos()
                                                  : cpuNanos() - cpu0);
    };

    // The onToken stream: each request's token times and gaps, and,
    // when traced, the current step's (id, token) sequence.
    std::vector<size_t> tokens_seen(n, 0);
    std::vector<std::pair<size_t, int>> step_emitted;
    std::vector<uint64_t> step_emit_ns;
    eng.onToken([&](size_t id, int tok, bool) {
        uint64_t t = now();
        RequestOutcome &o = res.reqs[id - base];
        if (tokens_seen[id - base]++ == 0) {
            o.firstTokenNs = t;
        } else {
            double gap = 1e-9 * static_cast<double>(t - o.lastTokenNs);
            res.itlS.push_back(gap);
            o.maxGapS = std::max(o.maxGapS, gap);
        }
        o.lastTokenNs = t;
        if (traced) {
            step_emit_ns.push_back(t);
            step_emitted.emplace_back(id, tok);
        }
    });

    bool metrics_were_on = telemetry::metricsEnabled();
    auto &registry = telemetry::MetricRegistry::global();
    uint64_t busy0 = 0;
    if (traced) {
        telemetry::setMetricsEnabled(true);
        busy0 = registry.counterSumByPrefix("pool.lane");
    }

    std::vector<Mirror> mirror(n);
    std::vector<size_t> live; // submitted, not finished (id order)

    auto traced_step = [&] {
        StepTrace st;
        double att0 = eng.attendSeconds();
        uint64_t enc0 = histogramSum("linear.quantize_ns");
        uint64_t gemm0 = histogramSum("linear.gemm_ns");
        uint64_t fwd0 = histogramSum("serving.step_ns");
        step_emitted.clear();
        step_emit_ns.clear();
        st.t0 = now();
        eng.step();
        st.t1 = now();
        st.attendS = eng.attendSeconds() - att0;
        st.encodeNs = histogramSum("linear.quantize_ns") - enc0;
        st.gemmNs = histogramSum("linear.gemm_ns") - gemm0;
        st.decodeForwardNs = histogramSum("serving.step_ns") - fwd0;
        res.stepS += 1e-9 * static_cast<double>(st.t1 - st.t0);
        st.emitted = step_emitted;
        st.livePages = eng.arena().livePages();
        st.occupancy = eng.arena().occupancy();
        st.waiting = eng.waitingCount();
        // A fresh admission's prefill starts when the step starts or
        // when the previous fresh prefill of the step ended (its
        // first token), so the wait behind it counts as queueing.
        uint64_t prefill_start = st.t0;
        size_t w = 0;
        for (size_t local : live) {
            const RequestStats &s = eng.stats(base + local);
            Mirror &m = mirror[local];
            bool evicted = s.preemptions > m.preemptions;
            if (m.state == RequestState::Queued &&
                s.state != RequestState::Queued) {
                st.fresh.push_back(base + local);
                res.reqs[local].admitNs = prefill_start;
                prefill_start = res.reqs[local].firstTokenNs;
            } else if (m.state == RequestState::Preempted &&
                       (s.state != RequestState::Preempted ||
                        evicted)) {
                st.resumed.push_back(base + local);
            }
            if (evicted)
                st.preempted.push_back(base + local);
            m.state = s.state;
            m.preemptions = s.preemptions;
            if (s.state != RequestState::Finished)
                live[w++] = local;
        }
        live.resize(w);
        m2x_assert(st.emitted.size() >= st.fresh.size(),
                   "traced step: %zu tokens for %zu admissions",
                   st.emitted.size(), st.fresh.size());
        uint64_t prefill_end = st.t0;
        if (!st.fresh.empty())
            prefill_end = step_emit_ns[st.fresh.size() - 1];
        else if (!st.resumed.empty())
            prefill_end = st.decodeRows() > 0
                              ? step_emit_ns[0] - st.decodeForwardNs
                              : st.t1;
        st.prefillNs = prefill_end - st.t0;
        res.steps.push_back(std::move(st));
    };

    size_t local0 = 0;
    for (const auto &burst : in.bursts) {
        const uint64_t start = now();
        auto due_ns = [&](size_t i) {
            return start + static_cast<uint64_t>(
                               std::llround(burst[i].dueS * 1e9));
        };
        size_t next = 0;
        while (next < burst.size() || !eng.idle()) {
            uint64_t s0 = now();
            while (next < burst.size() && due_ns(next) <= s0) {
                const RequestInput &r = burst[next];
                size_t local = local0 + next;
                size_t id = eng.submit(r.prompt, r.maxNew);
                uint64_t s1 = now();
                m2x_assert(id == base + local,
                           "engine id %zu, expected %zu", id,
                           base + local);
                RequestOutcome &o = res.reqs[local];
                o.id = id;
                o.dueNs = due_ns(next);
                o.submitNs = s0;
                res.lateS.push_back(1e-9 * static_cast<double>(
                                               o.submitNs - o.dueNs));
                if (traced) {
                    res.submitSpans.emplace_back(s0, s1);
                    live.push_back(local);
                }
                ++next;
                s0 = s1;
            }
            if (eng.idle()) {
                if (due_ns(next) > s0)
                    skipped_ns += due_ns(next) - s0;
                continue;
            }
            if (traced) {
                traced_step();
            } else {
                uint64_t t0 = now();
                eng.step();
                res.stepS += 1e-9 * static_cast<double>(now() - t0);
            }
        }
        uint64_t last_finish = start;
        for (size_t i = 0; i < burst.size(); ++i)
            last_finish = std::max(last_finish,
                                   res.reqs[local0 + i].lastTokenNs);
        res.busySpanS +=
            1e-9 * static_cast<double>(last_finish - due_ns(0));
        local0 += burst.size();
    }
    eng.onToken(nullptr);

    if (traced) {
        res.poolBusyNs = registry.counterSumByPrefix("pool.lane") - busy0;
        telemetry::setMetricsEnabled(metrics_were_on);
    }

    for (size_t local = 0; local < n; ++local) {
        RequestOutcome &o = res.reqs[local];
        const RequestStats &s = eng.stats(o.id);
        o.succeeded = s.state == RequestState::Finished &&
                      eng.generated(o.id).size() == s.maxNewTokens;
        res.generatedTokens += eng.generated(o.id).size();
    }
    m2x_assert(eng.tokenLatencies().size() - itl_base == res.itlS.size(),
               "%zu streamed gaps but %zu token latencies",
               res.itlS.size(), eng.tokenLatencies().size() - itl_base);
    res.preemptions = eng.preemptionCount() - preempt_base;
    return res;
}

} // namespace servebench

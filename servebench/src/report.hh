/**
 * @file
 * Turns drives and replays into the benchmark's named metrics.
 *
 * End-to-end metrics come from an untraced drive. Per-layer metrics
 * come from a traced drive and its replay, and include the step time
 * budget: the engine's summed step() wall time split into encode,
 * GEMM, attend, glue, scheduler and an explicit unattributed part.
 */

#ifndef SERVEBENCH_REPORT_HH__
#define SERVEBENCH_REPORT_HH__

#include <cstddef>
#include <vector>

#include "drive.hh"
#include "loadgen.hh"
#include "replay.hh"
#include "runtime/serving.hh"
#include "stats.hh"

namespace servebench {

/** Client-side latencies of one drive, timed from the due times. */
struct Latencies
{
    std::vector<double> ttftS; //!< succeeded requests only
    size_t sent = 0, succeeded = 0;
    size_t sloMet = 0; //!< succeeded within both of w's limits

    size_t failed() const { return sent - succeeded; }
};

Latencies latencies(const WorkloadSpec &w, const DriveLog &run);

/** Run-level measurements that are not part of a drive. */
struct RunContext
{
    double setupS = 0.0;       //!< median engine construction time
    double tokenMatch = 0.0;   //!< token_match_ratio
    double peakRssBytes = 0.0;
};

/** The end-to-end metrics, in BENCHMARK.json order. */
std::vector<Metric> endToEndMetrics(const DriveLog &run,
                                    const Latencies &lat,
                                    const RunContext &ctx);

/** Each metric's median over the passes (same names, same order). */
std::vector<Metric>
medianOverPasses(const std::vector<std::vector<Metric>> &per_pass);

/**
 * One traced run's step time budget. Every part but glue is the
 * engine's own figure: the step() spans, the registry's encode and
 * GEMM sums, attendSeconds(), and the model time of the prefills and
 * the decode forward (StepTrace). The engine exposes no glue time,
 * so glue is the replay's forwardChunk time outside its linear and
 * attend calls. sched is step time outside the model calls, and
 * unattributed is the model time that encode, GEMM, attend and the
 * replayed glue leave over: the replay's glue error, plus the linear
 * wrappers and the admission bookkeeping between prefills. The parts
 * sum to totalS.
 */
struct StepBudget
{
    double totalS = 0.0;
    double encodeS = 0.0, gemmS = 0.0, attendS = 0.0, glueS = 0.0;
    double schedS = 0.0, unattributedS = 0.0;
    /** The engine's model time, split by phase. */
    double prefillS = 0.0, decodeS = 0.0;
};

StepBudget stepBudget(const DriveLog &traced, const ReplayResult &rr);

/** Roofline probe results at the engine's lane count. */
struct Probes
{
    double triadGbPerS = 0.0;
    double fmaGflops = 0.0;
};

/** The per-layer metrics, in BENCHMARK.json order. */
std::vector<Metric> perLayerMetrics(const WorkloadSpec &w,
                                    const m2x::runtime::ServingConfig &cfg,
                                    const DriveLog &plain,
                                    const DriveLog &traced,
                                    const ReplayResult &rr,
                                    double high_water_bytes,
                                    const Probes &probes);

/** Human-readable step budget and roofline tables. */
void printStepBudget(const StepBudget &b, const ReplayResult &rr,
                     size_t steps);
void printRoofline(const std::vector<Metric> &per_layer,
                   const Probes &probes, unsigned lanes);
void printMetrics(const char *title, const std::vector<Metric> &ms,
                  const std::vector<std::vector<Metric>> &per_pass = {});

} // namespace servebench

#endif // SERVEBENCH_REPORT_HH__

/**
 * @file
 * Drives a ServingEngine through one run's inputs from a single
 * thread, as the engine expects, and records what a client sees.
 *
 * Open loop: a request is submitted once its due time has passed.
 * The engine has one driving thread, so a submit that falls due
 * during a step() waits for it: that lateness is recorded, and every
 * latency is timed from the due time, so it is never hidden.
 *
 * When the engine is idle, the loop does not sleep until the next
 * due time: it skips ahead, adding the idle stretch to its clock, so
 * due times keep their spacing and a run costs only the engine's
 * busy time.
 *
 * A drive keeps time on one of two clocks (Clock). The steady clock
 * is what a client would read. The CPU clock is the process's CPU
 * time, which on a shared host leaves out the time the host or other
 * processes took the CPU away (steal time, preemption). With a
 * one-lane engine, whose work all runs on the driving thread, CPU
 * time is the engine's service time, and every latency on that
 * clock is the latency a dedicated core would show.
 *
 * Traced runs also record benchmark-side spans around each submit()
 * and step() call, and after every step a snapshot of the engine's
 * public state (request states and preemption counts, arena pages,
 * attendSeconds()), plus the step's onToken stream. That is enough
 * to reconstruct every forwardChunk call the step made (see
 * replay.hh), without any span inside the engine. They also turn on
 * the telemetry metric registry, whose sums give the engine's own
 * encode, GEMM and decode-forward time per step.
 */

#ifndef SERVEBENCH_DRIVE_HH__
#define SERVEBENCH_DRIVE_HH__

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "loadgen.hh"
#include "runtime/serving.hh"

namespace servebench {

/** What one request saw (indexed like the run's inputs). */
struct RequestOutcome
{
    size_t id = 0; //!< engine request id
    uint64_t dueNs = 0;
    uint64_t submitNs = 0;
    uint64_t admitNs = 0; //!< start of its admission prefill (traced)
    uint64_t firstTokenNs = 0;
    uint64_t lastTokenNs = 0;
    double maxGapS = 0.0; //!< largest inter-token gap
    bool succeeded = false;
};

/** One step() call of a traced run. */
struct StepTrace
{
    uint64_t t0 = 0, t1 = 0; //!< benchmark span around step()
    /** Admissions, in the engine's order: resumed, then fresh. */
    std::vector<size_t> resumed, fresh;
    /** Active sequences the capacity check evicted. */
    std::vector<size_t> preempted;
    /** onToken stream: fresh admissions' first tokens, then one
     *  token per decode row, in row order. */
    std::vector<std::pair<size_t, int>> emitted;
    size_t livePages = 0;     //!< arena pages after the step
    double occupancy = 0.0;   //!< arena occupancy after the step
    size_t waiting = 0;       //!< queued + preempted after the step
    /** @{ The engine's own figures for this step. */
    double attendS = 0.0;     //!< attendSeconds() delta
    uint64_t encodeNs = 0;    //!< linear.quantize_ns sum delta
    uint64_t gemmNs = 0;      //!< linear.gemm_ns sum delta
    /** The decode batch's forwardChunk (serving.step_ns sum delta). */
    uint64_t decodeForwardNs = 0;
    /**
     * The step's prefills. They all run in admission, before the
     * decode batch, resumed requests first: from the step's start to
     * the last fresh admission's first token, or, when the step
     * resumed requests only (they stream no token), to the start of
     * the decode forward. The admission bookkeeping between them
     * (page check, KvCache set-up) counts in, a few microseconds.
     */
    uint64_t prefillNs = 0;
    /** @} */

    size_t decodeRows() const { return emitted.size() - fresh.size(); }
};

/** Everything one drive of the inputs recorded. */
struct DriveLog
{
    std::vector<RequestOutcome> reqs;
    /**
     * Inter-token gaps of this drive, in emission order, timed at
     * the onToken callbacks on the drive's clock (as many as the
     * engine's tokenLatencies() gained).
     */
    std::vector<double> itlS;
    /** Submit lateness behind the due time, per request. */
    std::vector<double> lateS;
    size_t generatedTokens = 0;
    /** Sum over bursts of first due time -> last finish. */
    double busySpanS = 0.0;
    size_t preemptions = 0;
    /** Sum of step() times: the engine's busy time. */
    double stepS = 0.0;
    /** @{ Traced drives only. */
    std::vector<StepTrace> steps;
    std::vector<std::pair<uint64_t, uint64_t>> submitSpans;
    uint64_t poolBusyNs = 0; //!< sum of pool.lane*.busy_ns
    /** @} */

    /**
     * Generated tokens over the engine's busy time. Not over the
     * busy span: an open loop that keeps up spans its arrival
     * schedule, whatever the engine's speed.
     */
    double
    tokensPerS() const
    {
        return stepS > 0.0
                   ? static_cast<double>(generatedTokens) / stepS
                   : 0.0;
    }
};

/** The clock a drive keeps time on (see the file comment). */
enum class Clock
{
    Wall, //!< steady clock
    Cpu,  //!< process CPU time, all threads
};

/** CPU time of this process, all threads, in nanoseconds. */
uint64_t cpuNanos();

/**
 * Serve @p in on @p eng (which may already have served earlier
 * requests). @p traced enables the telemetry metric registry for the
 * drive and records StepTrace snapshots; a traced drive keeps wall
 * time, because the engine's own figures it records do.
 */
DriveLog drive(m2x::runtime::ServingEngine &eng, const RunInputs &in,
               bool traced, Clock clock = Clock::Wall);

} // namespace servebench

#endif // SERVEBENCH_DRIVE_HH__

/**
 * @file
 * Seeded traffic mixes for the serving benchmark.
 *
 * A workload is one traffic mix: how requests arrive (open-loop
 * paced pairs, or offline bursts with every request due at the
 * burst's start), their prompt and output length ranges, the engine
 * configuration they run on, and the latency limits the SLO
 * attainment metric checks. The generator turns (workload, seed)
 * into the exact inputs; the engine only ever sees those inputs, and
 * the run prints their digest so two runs can prove they served the
 * same traffic.
 */

#ifndef SERVEBENCH_LOADGEN_HH__
#define SERVEBENCH_LOADGEN_HH__

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/packed_codec.hh"

namespace servebench {

/** How a workload's requests fall due. */
enum class Arrival
{
    PacedPairs, //!< open loop, two requests due every 2 / rate
    Burst,      //!< offline: bursts, every request due at the start
};

/** One traffic mix and the engine configuration it runs on. */
struct WorkloadSpec
{
    const char *name;
    const char *why;
    Arrival arrival;
    /** Open loop: mean arrival rate (requests/s). */
    double ratePerS = 0.0;
    /** Offline: requests per burst. */
    size_t burstRequests = 0;
    /**
     * Engine CPU seconds one pass takes on the reference machine
     * (a Xeon Sapphire Rapids core, AVX-512). A run of --seconds S
     * serves passCount() = max(1, floor(S / passSeconds))
     * independent passes; each end-to-end metric is the median over
     * them, so a slow stretch of a shared machine moves at most a
     * minority of them.
     */
    double passSeconds = 1.0;
    /** Inclusive length ranges (tokens). */
    size_t promptLo, promptHi;
    size_t outLo, outHi;
    /** Engine configuration. */
    size_t arenaPages;
    m2x::PackedCodec codec;
    /** SLO limits: TTFT from the due time, and largest token gap. */
    double ttftLimitS;
    double gapLimitS;
};

/** The benchmark's workloads, in documentation order. */
const std::vector<WorkloadSpec> &workloads();

/** The workload called @p name, or null. */
const WorkloadSpec *findWorkload(const std::string &name);

/** One generated request. */
struct RequestInput
{
    /** Seconds after its burst's start (open loop: the run's). */
    double dueS = 0.0;
    std::vector<int> prompt;
    size_t maxNew = 0;
};

/**
 * The inputs of one pass: bursts of requests driven one after the
 * other. An open-loop workload is one burst whose due times follow
 * the arrival process; an offline workload is several bursts, each
 * all due at its start.
 */
struct RunInputs
{
    std::vector<std::vector<RequestInput>> bursts;

    size_t requestCount() const;
};

/**
 * Fewest requests and inter-token gaps a pass holds, so that the
 * nearest-rank TTFT p90 and gap p99 each have at least ten samples
 * beyond them (see samplesBeyond() in stats.hh).
 */
constexpr size_t minRequestsPerPass = 100;
constexpr size_t minGapsPerPass = 1000;

/** Passes a run of @p seconds serves (see passSeconds). */
size_t passCount(const WorkloadSpec &w, unsigned seconds);

/**
 * The inputs of @p passes passes of @p w under @p seed. The two
 * floors alone size a pass: open loop, the fewest arrivals that meet
 * both, two at a time every 2 / rate; offline, the fewest whole
 * bursts that meet both. Deterministic in (w, seed, vocab, passes),
 * and a longer run's passes begin with a shorter run's.
 */
std::vector<RunInputs> generateInputs(const WorkloadSpec &w,
                                      uint64_t seed, unsigned vocab,
                                      size_t passes);

/** FNV-1a 64 digest over every due time, token and length. */
uint64_t inputDigest(const std::vector<RunInputs> &passes);

/** Digest as 16 lowercase hex digits. */
std::string digestHex(uint64_t digest);

} // namespace servebench

#endif // SERVEBENCH_LOADGEN_HH__

/**
 * @file
 * Replays a traced run's forwardChunk calls through the runtime's
 * public parts, to split each step's time by layer from outside.
 *
 * From a traced drive (drive.hh) the replay knows, for every
 * engine step, which requests were admitted (and in what order),
 * which were preempted, and which rows formed the decode batch. It
 * re-issues exactly that sequence of forwardChunk calls on:
 *  - a TinyTransformer rebuilt with packedLinearFactory(..., &stats),
 *    whose LayerStats give the encode and GEMM time per call;
 *  - a timing AttentionBackend decorator over CacheAttendBackend,
 *    which gives the KV append + attend time;
 *  - one KvCache per request over a KvPageArena configured like the
 *    engine's.
 * Each replayed token is checked against the token the engine
 * streamed, and the replay arena's live pages against the engine's
 * after every step; the first difference stops the replay and is
 * reported as a mismatch.
 */

#ifndef SERVEBENCH_REPLAY_HH__
#define SERVEBENCH_REPLAY_HH__

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "drive.hh"
#include "loadgen.hh"
#include "model/config.hh"
#include "runtime/serving.hh"

namespace servebench {

/** Seconds and shape-derived work of one phase (prefill or decode). */
struct PhaseWork
{
    double forwardS = 0.0;  //!< forwardChunk wall time
    double linearS = 0.0;   //!< inside packed linear calls
    double encodeS = 0.0;   //!< activation encode (LayerStats)
    double gemmS = 0.0;     //!< packed GEMM (LayerStats)
    double attendS = 0.0;   //!< KV append + attend (decorator)
    double encodeBytes = 0.0; //!< fp32 read + packed write
    double gemmFlops = 0.0;   //!< 2 * rows * in * out
    double attendBytes = 0.0; //!< packed K/V rows read
};

/** What the replay measured and checked. */
struct ReplayResult
{
    bool matched = true;
    std::string mismatch; //!< first difference, when !matched
    size_t tokensChecked = 0;

    PhaseWork prefill, decode;
    /** Re-prefilled history tokens of resumed requests. */
    size_t reprefillTokens = 0;
    /** Prompt tokens of fresh admissions. */
    size_t freshPrefillTokens = 0;
    /** Pages released by finished or preempted requests. */
    size_t pagesChurned = 0;
};

/** The engine's greedy pick: the first maximum logit of @p row. */
int argmaxRow(const m2x::Matrix &logits, size_t row);

/**
 * Replay @p run (a traced drive of @p in) on a fresh model and arena
 * built from @p model_cfg and @p cfg. @p first_id is the engine id of
 * the run's first request.
 */
ReplayResult replay(const m2x::model::ModelConfig &model_cfg,
                    const m2x::runtime::ServingConfig &cfg,
                    const RunInputs &in, const DriveLog &run,
                    size_t first_id);

} // namespace servebench

#endif // SERVEBENCH_REPLAY_HH__

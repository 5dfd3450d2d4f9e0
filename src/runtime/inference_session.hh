/**
 * @file
 * packedLinearFactory: rebuilds a zoo model so each of its linear
 * operators is a PackedLinear (weights resident as packed streams),
 * optionally wrapped in a timing shim that accumulates per-layer
 * LayerStats — wall time, the quantize/GEMM phase split, throughput
 * and resident-bytes accounting. ServingEngine, the runtime benches
 * and servebench's replay all build their packed models through it.
 */

#ifndef M2X_RUNTIME_INFERENCE_SESSION_HH__
#define M2X_RUNTIME_INFERENCE_SESSION_HH__

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "core/m2xfp.hh"
#include "core/packed_codec.hh"
#include "model/transformer.hh"
#include "runtime/simd.hh"
#include "runtime/thread_pool.hh"

namespace m2x {
namespace runtime {

/** Accumulated per-layer execution statistics. */
struct LayerStats
{
    std::string name;
    std::string isa;        //!< kernel tier the layer executes on
    size_t inFeatures = 0;
    size_t outFeatures = 0;
    size_t packedBytes = 0; //!< resident packed weight bytes
    size_t denseBytes = 0;  //!< fp32 equivalent
    std::atomic<uint64_t> calls{0};
    std::atomic<uint64_t> nanos{0};
    std::atomic<uint64_t> rows{0}; //!< total activation rows seen
    /** @{
     * Forward-pass phase split: online activation packing (the
     * fast-path encoder) vs the packed GEMM. Their sum is slightly
     * below nanos (shim overhead, buffer resizing).
     */
    std::atomic<uint64_t> quantizeNanos{0};
    std::atomic<uint64_t> gemmNanos{0};
    /** @} */

    double seconds() const { return 1e-9 * nanos.load(); }
    double quantizeSeconds() const
    {
        return 1e-9 * quantizeNanos.load();
    }
    double gemmSeconds() const { return 1e-9 * gemmNanos.load(); }

    /** Zero the timing counters (keeps the weight accounting). */
    void
    reset()
    {
        calls = 0;
        nanos = 0;
        rows = 0;
        quantizeNanos = 0;
        gemmNanos = 0;
    }

    /** Achieved GEMM throughput over all recorded calls. */
    double
    gflops() const
    {
        double s = seconds();
        if (s <= 0.0)
            return 0.0;
        double flops = 2.0 * static_cast<double>(rows.load()) *
                       static_cast<double>(inFeatures) *
                       static_cast<double>(outFeatures);
        return flops / s * 1e-9;
    }
};

/**
 * A LinearFactory producing PackedLinear layers, for wiring the
 * packed runtime into zoo-style evaluation code. @p stats, when non
 * null, receives one LayerStats per created layer (timing shims are
 * inserted); @p pool null uses the global pool; @p isa pins the
 * kernel tier (defaults to the process-wide dispatch decision).
 */
model::LinearFactory packedLinearFactory(
    M2xfpConfig cfg = {}, ThreadPool *pool = nullptr,
    std::vector<std::shared_ptr<LayerStats>> *stats = nullptr,
    SimdIsa isa = activeSimdIsa(),
    PackedCodec codec = PackedCodec::ElemEm);

} // namespace runtime
} // namespace m2x

#endif // M2X_RUNTIME_INFERENCE_SESSION_HH__

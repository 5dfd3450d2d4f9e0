/**
 * @file
 * PackedLinear: a LinearOp whose weight is resident as packed M2XFP
 * streams (~4.5 bits/element) instead of a dequantized fp32 matrix,
 * and whose forward pass runs the packed-domain GEMM.
 *
 * Numerically it is a drop-in for QuantizedLinear configured with
 * the paper's M2XFP pair (Sg-EM-2bit weights, Elem-EM-top1
 * activations): on the scalar ISA tier forward() produces
 * bit-identical outputs, because packing + packed GEMM reconstructs
 * exactly the values the functional codecs produce
 * (tests/runtime/packed_linear_test.cc asserts this); vector tiers
 * decode the same values but reassociate the accumulation and are
 * held to the SIMD tolerance contract. What changes is the cost
 * model: ~7.1x less resident weight memory, and a blocked
 * multi-threaded SIMD kernel instead of the naive reference loop.
 */

#ifndef M2X_RUNTIME_PACKED_LINEAR_HH__
#define M2X_RUNTIME_PACKED_LINEAR_HH__

#include <cstdint>

#include "core/m2xfp.hh"
#include "core/m2xfp_packed.hh"
#include "gemm/gemm.hh"
#include "runtime/packed_gemm.hh"

namespace m2x {
namespace runtime {

/**
 * Wall time a forward pass spent in its two phases: online
 * activation packing (the fast-path encoder) and the packed GEMM.
 * Accumulating — one instance can integrate over many calls.
 *
 * This is a per-caller view over the same measurements the
 * telemetry layer exports process-wide: each phase is timed once
 * and the interval feeds the `linear.quantize`/`linear.gemm` trace
 * spans, the `linear.*_ns` registry histograms, and this struct —
 * see runtime/telemetry.hh and docs/OBSERVABILITY.md.
 */
struct ForwardBreakdown
{
    uint64_t quantizeNanos = 0;
    uint64_t gemmNanos = 0;
};

/** y = x W^T with W resident in packed M2XFP form. */
class PackedLinear : public LinearOp
{
  public:
    /**
     * Reusable forward scratch: the packed activation streams. A
     * caller that keeps one Workspace per layer makes the encode
     * side of the steady-state forward allocation-free.
     */
    struct Workspace
    {
        PackedM2xfpTensor packedAct;
    };

    /**
     * Quantize and pack @p weight [out_features, in_features] at
     * construction (offline, like the paper's weight calibration),
     * through the runtime's per-ISA encoders — byte-identical to the
     * functional weight packers.
     *
     * @param cfg  must keep the paper packed layout (g32/sg8, 2-bit
     *        metadata, top-1); only consulted by the elem_em codec —
     *        other codecs carry their own fixed geometry
     * @param pool thread pool for the weight packing and forward();
     *        null = global pool
     * @param isa  kernel tier for the weight packing and forward();
     *        defaults to the process-wide dispatch decision (must be
     *        available)
     * @param codec packed stream format for the resident weight and
     *        the online activation encode (the format axis of the
     *        codec-traits seam); elem_em keeps the legacy byte-exact
     *        fast path
     */
    explicit PackedLinear(const Matrix &weight, M2xfpConfig cfg = {},
                          ThreadPool *pool = nullptr,
                          SimdIsa isa = activeSimdIsa(),
                          PackedCodec codec = PackedCodec::ElemEm);

    /** Pack x as activations (online) and multiply in packed form. */
    Matrix forward(const Matrix &x) const override;

    /** The into-style LinearOp entry point (no output allocation). */
    void
    forwardInto(const Matrix &x, Matrix &y) const override
    {
        forward(x, y, nullptr, nullptr);
    }

    /**
     * Same, writing into the caller-provided output @p y (resized in
     * place, storage reused). @p ws, when non-null, carries the
     * packed-activation scratch across calls; @p times, when
     * non-null, accumulates the quantize/GEMM wall-time split. Both
     * phases run on the layer's thread pool and ISA tier.
     */
    void forward(const Matrix &x, Matrix &y, Workspace *ws = nullptr,
                 ForwardBreakdown *times = nullptr) const;

    size_t inFeatures() const override { return inFeatures_; }
    size_t outFeatures() const override { return outFeatures_; }

    /** The resident packed weight streams. */
    const PackedM2xfpTensor &packedWeight() const { return weight_; }

    /** Resident weight bytes (all three packed streams). */
    size_t residentBytes() const { return weight_.totalBytes(); }

    /** Bytes the dequantized fp32 weight would occupy. */
    size_t
    denseBytes() const
    {
        return inFeatures_ * outFeatures_ * sizeof(float);
    }

    const ElemEmQuantizer &activationQuantizer() const
    {
        return actQ_;
    }
    const SgEmQuantizer &weightQuantizer() const { return weightQ_; }

    /** The kernel tier forward() executes on. */
    SimdIsa simdIsa() const { return isa_; }

    /** The packed stream format of the weight and activations. */
    PackedCodec codec() const { return codec_; }

  private:
    ElemEmQuantizer actQ_;
    SgEmQuantizer weightQ_;
    PackedM2xfpTensor weight_;
    size_t inFeatures_;
    size_t outFeatures_;
    ThreadPool *pool_;
    SimdIsa isa_;
    PackedCodec codec_;
};

} // namespace runtime
} // namespace m2x

#endif // M2X_RUNTIME_PACKED_LINEAR_HH__

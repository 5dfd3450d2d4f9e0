#include "runtime/packed_linear.hh"

#include "runtime/telemetry.hh"
#include "util/logging.hh"

namespace m2x {
namespace runtime {

namespace {

/** @{ Cached forward-phase metric handles (null while metrics off). */
std::atomic<telemetry::Histogram *> quantizeSlot{nullptr};
std::atomic<telemetry::Histogram *> gemmSlot{nullptr};
std::atomic<telemetry::Counter *> forwardRowsSlot{nullptr};
/** @} */

} // anonymous namespace

PackedLinear::PackedLinear(const Matrix &weight, M2xfpConfig cfg,
                           ThreadPool *pool, SimdIsa isa,
                           PackedCodec codec)
    : actQ_(cfg.activationConfig()), weightQ_(cfg.weightConfig()),
      inFeatures_(weight.cols()), outFeatures_(weight.rows()),
      pool_(pool), isa_(isa), codec_(codec)
{
    m2x_assert(cfg.groupSize == PackedM2xfpTensor::groupSize &&
               cfg.subgroupSize == PackedM2xfpTensor::subgroupSize,
               "PackedLinear requires the paper layout (g32/sg8), "
               "got g%u/sg%u", cfg.groupSize, cfg.subgroupSize);
    m2x_assert(simdIsaAvailable(isa),
               "PackedLinear: ISA tier '%s' is not available on "
               "this machine", simdIsaName(isa));
    // Weight packing is offline (construction) but runs the same
    // runtime encoders as the forward pass: byte-identical to
    // packWeights(weight, weightQ_) for elem_em and to
    // packWeightsCodec(weight, codec_) for the other codecs.
    weight_ = codec_ == PackedCodec::ElemEm
                  ? PackedM2xfpTensor::packWeights(weight, weightQ_,
                                                   pool_, isa_)
                  : PackedM2xfpTensor::packWeightsCodec(
                        weight, codec_, pool_, isa_);
}

void
PackedLinear::forward(const Matrix &x, Matrix &y, Workspace *ws,
                      ForwardBreakdown *times) const
{
    m2x_assert(x.cols() == inFeatures_,
               "linear in_features mismatch: %zu vs %zu", x.cols(),
               inFeatures_);
    Workspace local;
    Workspace &w = ws ? *ws : local;

    // One nowNanos pair per phase feeds every consumer — the trace
    // span, the registry histogram, and the caller's accumulating
    // ForwardBreakdown — so all three always agree. When telemetry
    // is off and no breakdown was asked for, the clock is not read.
    const bool timed = times || telemetry::traceEnabled() ||
                       telemetry::metricsEnabled();

    uint64_t t0 = timed ? telemetry::nowNanos() : 0;
    if (codec_ == PackedCodec::ElemEm)
        PackedM2xfpTensor::packActivations(x, actQ_, pool_, isa_,
                                           w.packedAct);
    else
        PackedM2xfpTensor::packActivationsCodec(x, codec_, pool_,
                                                isa_, w.packedAct);
    uint64_t t1 = timed ? telemetry::nowNanos() : 0;
    telemetry::traceComplete("linear.quantize", t0, t1);
    packedMatmulNt(w.packedAct, weight_, y, pool_, isa_);
    uint64_t t2 = timed ? telemetry::nowNanos() : 0;
    telemetry::traceComplete("linear.gemm", t1, t2);

    if (times) {
        times->quantizeNanos += t1 - t0;
        times->gemmNanos += t2 - t1;
    }
    if (telemetry::metricsEnabled()) {
        if (auto *h = telemetry::cachedHistogram(
                quantizeSlot, "linear.quantize_ns"))
            h->record(t1 - t0);
        if (auto *h = telemetry::cachedHistogram(gemmSlot,
                                                 "linear.gemm_ns"))
            h->record(t2 - t1);
        if (auto *c = telemetry::cachedCounter(
                forwardRowsSlot, "linear.forward_rows"))
            c->add(x.rows());
    }
}

Matrix
PackedLinear::forward(const Matrix &x) const
{
    Matrix y;
    forward(x, y);
    return y;
}

} // namespace runtime
} // namespace m2x

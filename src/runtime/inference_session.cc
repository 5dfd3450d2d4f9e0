#include "runtime/inference_session.hh"

#include "runtime/packed_linear.hh"
#include "runtime/telemetry.hh"

namespace m2x {
namespace runtime {

namespace {

/**
 * Shim recording wall time, the quantize/GEMM phase split and row
 * counts around a PackedLinear. The per-layer Workspace persists
 * across calls so the encode side of the steady-state forward is
 * allocation-free on the expected single-serving-thread path; a
 * concurrent forward on the same layer (the old stateless shim
 * allowed it, so it must stay correct) simply fails to claim the
 * workspace and pays one per-call scratch allocation instead. The
 * into-style forwardInto() is the primary entry point — the model
 * routes through it with per-slot reused outputs, so the
 * steady-state forward performs no output allocation either;
 * forward() wraps it for return-by-value callers.
 */
class TimedLinear : public LinearOp
{
  public:
    TimedLinear(std::unique_ptr<PackedLinear> inner,
                std::shared_ptr<LayerStats> stats)
        : inner_(std::move(inner)), stats_(std::move(stats))
    {}

    Matrix
    forward(const Matrix &x) const override
    {
        Matrix y;
        forwardInto(x, y);
        return y;
    }

    void
    forwardInto(const Matrix &x, Matrix &y) const override
    {
        ForwardBreakdown bd;
        telemetry::TraceSpan span("linear.forward");
        if (span.active()) {
            span.arg("layer", stats_->name.c_str());
            span.arg("rows", x.rows());
        }
        uint64_t t0 = telemetry::nowNanos();
        // Claim the shared workspace; a concurrent forward on the
        // same layer (legal — the pre-workspace shim was stateless)
        // falls back to per-call scratch rather than racing.
        struct Release
        {
            std::atomic<bool> *flag;
            ~Release()
            {
                if (flag)
                    flag->store(false, std::memory_order_release);
            }
        } release{nullptr};
        if (!busy_.exchange(true, std::memory_order_acquire)) {
            release.flag = &busy_;
            inner_->forward(x, y, &ws_, &bd);
        } else {
            inner_->forward(x, y, nullptr, &bd);
        }
        stats_->calls.fetch_add(1, std::memory_order_relaxed);
        stats_->rows.fetch_add(x.rows(), std::memory_order_relaxed);
        stats_->nanos.fetch_add(telemetry::nowNanos() - t0,
                                std::memory_order_relaxed);
        stats_->quantizeNanos.fetch_add(bd.quantizeNanos,
                                        std::memory_order_relaxed);
        stats_->gemmNanos.fetch_add(bd.gemmNanos,
                                    std::memory_order_relaxed);
    }

    size_t inFeatures() const override { return inner_->inFeatures(); }
    size_t outFeatures() const override
    {
        return inner_->outFeatures();
    }

  private:
    std::unique_ptr<PackedLinear> inner_;
    std::shared_ptr<LayerStats> stats_;
    mutable PackedLinear::Workspace ws_;
    mutable std::atomic<bool> busy_{false};
};

} // anonymous namespace

model::LinearFactory
packedLinearFactory(M2xfpConfig cfg, ThreadPool *pool,
                    std::vector<std::shared_ptr<LayerStats>> *stats,
                    SimdIsa isa, PackedCodec codec)
{
    return [cfg, pool, stats, isa, codec](const Matrix &w,
                                          const std::string &name,
                                          const Matrix *)
               -> std::unique_ptr<LinearOp> {
        auto packed =
            std::make_unique<PackedLinear>(w, cfg, pool, isa, codec);
        if (!stats)
            return packed;
        auto s = std::make_shared<LayerStats>();
        s->name = name;
        s->isa = simdIsaName(packed->simdIsa());
        s->inFeatures = packed->inFeatures();
        s->outFeatures = packed->outFeatures();
        s->packedBytes = packed->residentBytes();
        s->denseBytes = packed->denseBytes();
        stats->push_back(s);
        return std::make_unique<TimedLinear>(std::move(packed),
                                             std::move(s));
    };
}

} // namespace runtime
} // namespace m2x

#include "model/transformer.hh"

#include <cmath>

#include "model/softmax.hh"
#include "model/tensor_gen.hh"
#include "util/logging.hh"

namespace m2x {
namespace model {

LinearFactory
fp32LinearFactory()
{
    return [](const Matrix &w, const std::string &,
              const Matrix *) -> std::unique_ptr<LinearOp> {
        return std::make_unique<QuantizedLinear>(w, nullptr, nullptr);
    };
}

LinearFactory
quantizedLinearFactory(
    std::function<std::shared_ptr<GroupQuantizer>()> weight_q,
    std::function<std::shared_ptr<GroupQuantizer>()> act_q)
{
    return [weight_q, act_q](const Matrix &w, const std::string &,
                             const Matrix *)
               -> std::unique_ptr<LinearOp> {
        return std::make_unique<QuantizedLinear>(
            w, weight_q ? weight_q() : nullptr,
            act_q ? act_q() : nullptr);
    };
}

TinyTransformer::TinyTransformer(const ModelConfig &cfg) : cfg_(cfg)
{
    Rng rng(cfg.seed * 0x9e3779b97f4a7c15ull + 0x1234567);
    std::vector<float> hot = hotChannelGains(rng, cfg);
    embedding_ = genEmbedding(rng, cfg, hot);
    lmHead_ = genWeight(rng, cfg.vocab, cfg.dModel, cfg, 1.0);
    finalNormGain_ = genNormGain(rng, cfg.dModel, cfg);

    double resid_scale = 1.0 / std::sqrt(2.0 * cfg.nLayers);
    // GQA: the K/V projections produce kvDim() columns (== dModel for
    // classic MHA, so default configs consume the identical RNG
    // stream and keep their exact weights).
    unsigned kv_dim = cfg.kvDim();
    blocks_.resize(cfg.nLayers);
    for (auto &b : blocks_) {
        b.attnNormGain = genNormGain(rng, cfg.dModel, cfg);
        b.mlpNormGain = genNormGain(rng, cfg.dModel, cfg);
        b.wq = genWeight(rng, cfg.dModel, cfg.dModel, cfg, 1.0);
        b.wk = genWeight(rng, kv_dim, cfg.dModel, cfg, 1.0);
        b.wv = genWeight(rng, kv_dim, cfg.dModel, cfg, 1.0);
        b.wo = genWeight(rng, cfg.dModel, cfg.dModel, cfg,
                         resid_scale);
        b.wGate = genWeight(rng, cfg.dFf, cfg.dModel, cfg, 1.0);
        b.wUp = genWeight(rng, cfg.dFf, cfg.dModel, cfg, 1.0);
        b.wDown = genWeight(rng, cfg.dModel, cfg.dFf, cfg,
                            resid_scale);
    }
    rebuild(fp32LinearFactory());
}

std::vector<TinyTransformer::LinearSlot>
TinyTransformer::linearSlots()
{
    std::vector<LinearSlot> slots;
    for (size_t l = 0; l < blocks_.size(); ++l) {
        Block &b = blocks_[l];
        std::string p = "layer" + std::to_string(l) + ".";
        slots.push_back({p + "q", &b.wq, &b.q});
        slots.push_back({p + "k", &b.wk, &b.k});
        slots.push_back({p + "v", &b.wv, &b.v});
        slots.push_back({p + "o", &b.wo, &b.o});
        slots.push_back({p + "gate", &b.wGate, &b.gate});
        slots.push_back({p + "up", &b.wUp, &b.up});
        slots.push_back({p + "down", &b.wDown, &b.down});
    }
    slots.push_back({"head", &lmHead_, &head_});
    return slots;
}

void
TinyTransformer::rebuild(const LinearFactory &factory)
{
    for (auto &slot : linearSlots()) {
        auto it = calib_.find(slot.name);
        const Matrix *calib =
            it == calib_.end() ? nullptr : &it->second;
        *slot.op = factory(*slot.weight, slot.name, calib);
    }
}

std::vector<std::string>
TinyTransformer::linearNames() const
{
    std::vector<std::string> names;
    for (auto &slot : const_cast<TinyTransformer *>(this)
                          ->linearSlots())
        names.push_back(slot.name);
    return names;
}

const Matrix &
TinyTransformer::rawWeight(const std::string &name) const
{
    for (auto &slot :
         const_cast<TinyTransformer *>(this)->linearSlots()) {
        if (slot.name == name)
            return *slot.weight;
    }
    m2x_fatal("unknown linear '%s'", name.c_str());
}

void
TinyTransformer::setKvQuantizers(
    std::function<std::shared_ptr<GroupQuantizer>()> kv_q,
    std::function<std::shared_ptr<GroupQuantizer>()> qp_q)
{
    kvQ_ = std::move(kv_q);
    qpQ_ = std::move(qp_q);
}

Matrix
TinyTransformer::rmsNorm(const Matrix &x,
                         const std::vector<float> &gain) const
{
    Matrix out;
    rmsNormInto(x, gain, out);
    return out;
}

void
TinyTransformer::rmsNormInto(const Matrix &x,
                             const std::vector<float> &gain,
                             Matrix &out) const
{
    out.resize(x.rows(), x.cols());
    for (size_t r = 0; r < x.rows(); ++r) {
        double ss = 0.0;
        for (float v : x.row(r))
            ss += static_cast<double>(v) * v;
        float inv = static_cast<float>(
            1.0 / std::sqrt(ss / static_cast<double>(x.cols()) +
                            1e-6));
        for (size_t c = 0; c < x.cols(); ++c)
            out(r, c) = x(r, c) * inv * gain[c];
    }
}

namespace {

/**
 * Rotary position embedding applied in place to every head of @p q
 * and @p k, which share the head dimension. Row t rotates by its
 * absolute position positions[t], so a chunk of rows deep in a
 * sequence gets exactly the rotation the full forward would apply.
 * The angle depends only on the position and the pair index, so each
 * row's (cos, sin) pairs are computed once for all heads.
 */
void
applyRope(Matrix &q, unsigned q_heads, Matrix &k, unsigned k_heads,
          std::span<const size_t> positions)
{
    size_t hd = q.cols() / q_heads;
    m2x_assert(k.cols() / k_heads == hd && q.rows() == k.rows(),
               "applyRope: q %zux%zu/%u vs k %zux%zu/%u", q.rows(),
               q.cols(), q_heads, k.rows(), k.cols(), k_heads);
    std::vector<float> cs(hd & ~size_t{1});
    auto rotate = [&](float *row, unsigned n_heads) {
        for (unsigned h = 0; h < n_heads; ++h) {
            float *base = row + h * hd;
            for (size_t i = 0; i + 1 < hd; i += 2) {
                float c = cs[i], s = cs[i + 1];
                float a = base[i], b = base[i + 1];
                base[i] = a * c - b * s;
                base[i + 1] = a * s + b * c;
            }
        }
    };
    for (size_t t = 0; t < q.rows(); ++t) {
        for (size_t i = 0; i + 1 < hd; i += 2) {
            double theta =
                static_cast<double>(positions[t]) /
                std::pow(10000.0, static_cast<double>(i) /
                                      static_cast<double>(hd));
            cs[i] = static_cast<float>(std::cos(theta));
            cs[i + 1] = static_cast<float>(std::sin(theta));
        }
        rotate(q.data() + t * q.cols(), q_heads);
        rotate(k.data() + t * k.cols(), k_heads);
    }
}

} // anonymous namespace

void
TinyTransformer::attention(const Block &b, size_t layer,
                           const Matrix &x_normed,
                           std::span<const size_t> positions,
                           AttentionBackend *backend,
                           const std::string &prefix,
                           std::map<std::string, Matrix> *collect,
                           ForwardScratch &s) const
{
    // Projection stage: QKV linears, RoPE at the rows' absolute
    // positions, §6.4 operand quantization.
    b.q->forwardInto(x_normed, s.q);
    b.k->forwardInto(x_normed, s.k);
    b.v->forwardInto(x_normed, s.v);
    applyRope(s.q, cfg_.nHeads, s.k, cfg_.kvHeads(), positions);

    // §6.4 extension: K/V are right-hand GEMM operands and may be
    // quantized with the static-side codec; Q with the dynamic one.
    if (kvQ_) {
        auto kq = kvQ_();
        s.k = quantizeRowsGrouped(s.k, *kq);
        auto vq = kvQ_();
        s.v = quantizeRowsGrouped(s.v, *vq);
    }
    if (qpQ_) {
        auto qq = qpQ_();
        s.q = quantizeRowsGrouped(s.q, *qq);
    }

    // Score/value stage: the built-in causal implementation, or the
    // caller's incremental backend (which owns the KV cache).
    if (backend) {
        // §6.4 P quantization happens inside the softmax loop, which
        // an external backend owns — none implements it today, so
        // running such a model incrementally would silently diverge
        // from the one-shot forward. Fail loudly instead.
        m2x_assert(!qpQ_,
                   "forwardChunk: the post-softmax P quantizer "
                   "(setKvQuantizers) is not supported by attention "
                   "backends");
        s.attnOut = backend->attend(layer, s.q, s.k, s.v, positions,
                                    cfg_.nHeads, cfg_.kvHeads(),
                                    cfg_.slidingWindow);
        m2x_assert(s.attnOut.rows() == x_normed.rows() &&
                   s.attnOut.cols() == cfg_.dModel,
                   "attention backend returned %zux%zu, want %zux%u",
                   s.attnOut.rows(), s.attnOut.cols(),
                   x_normed.rows(), cfg_.dModel);
    } else {
        s.attnOut = causalAttend(s.q, s.k, s.v);
    }
    if (collect)
        (*collect)[prefix + "o"] = s.attnOut;
    b.o->forwardInto(s.attnOut, s.attnProj);
}

Matrix
TinyTransformer::causalAttend(const Matrix &q, const Matrix &k,
                              const Matrix &v) const
{
    size_t t_len = q.rows();
    size_t d = cfg_.dModel;
    size_t hd = d / cfg_.nHeads;
    // GQA: consecutive groups of `group` query heads read the same
    // K/V head; classic MHA is group == 1.
    unsigned group = cfg_.nHeads / cfg_.kvHeads();
    size_t window = cfg_.slidingWindow;

    float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(hd));
    Matrix out(t_len, d);
    std::vector<float> scores(t_len);
    for (unsigned h = 0; h < cfg_.nHeads; ++h) {
        size_t off = h * hd;
        size_t kv_off = static_cast<size_t>(h / group) * hd;
        for (size_t i = 0; i < t_len; ++i) {
            // Causal scores for row i; a sliding window keeps only
            // the trailing `window` positions (i itself included).
            size_t j0 = (window != 0 && i + 1 > window)
                            ? i + 1 - window
                            : 0;
            size_t valid = i + 1 - j0;
            for (size_t j = j0; j <= i; ++j) {
                double dot = 0.0;
                for (size_t c = 0; c < hd; ++c)
                    dot += static_cast<double>(q(i, off + c)) *
                           k(j, kv_off + c);
                scores[j - j0] = static_cast<float>(dot) * inv_sqrt;
            }
            // Softmax over the visible prefix — the shared helper is
            // the bit-exactness contract with the decode runtime.
            attentionSoftmax(scores.data(), valid);
            // §6.4: optionally quantize the probability row (P).
            if (qpQ_) {
                auto pq = qpQ_();
                std::vector<float> p_out(valid);
                quantizeSpanGrouped({scores.data(), valid},
                                    {p_out.data(), valid}, *pq);
                std::copy(p_out.begin(), p_out.end(),
                          scores.begin());
            }
            // O_i = sum_j P_ij V_j.
            for (size_t c = 0; c < hd; ++c) {
                double acc = 0.0;
                for (size_t j = 0; j < valid; ++j)
                    acc += static_cast<double>(scores[j]) *
                           v(j0 + j, kv_off + c);
                out(i, off + c) = static_cast<float>(acc);
            }
        }
    }
    return out;
}

Matrix
TinyTransformer::forwardInner(
    std::span<const int> tokens, std::span<const size_t> positions,
    AttentionBackend *backend,
    std::map<std::string, Matrix> *collect) const
{
    size_t t_len = tokens.size();
    m2x_assert(positions.size() == t_len,
               "positions: %zu entries for %zu tokens",
               positions.size(), t_len);
    Matrix x(t_len, cfg_.dModel);
    for (size_t t = 0; t < t_len; ++t) {
        int tok = tokens[t];
        m2x_assert(tok >= 0 &&
                   static_cast<unsigned>(tok) < cfg_.vocab,
                   "token %d out of vocab %u", tok, cfg_.vocab);
        for (size_t c = 0; c < cfg_.dModel; ++c)
            x(t, c) = embedding_(static_cast<size_t>(tok), c);
    }

    auto record = [&](const std::string &name, const Matrix &input) {
        if (collect)
            (*collect)[name] = input;
    };

    // Per thread, so a steady decode stream reuses every buffer and
    // concurrent forwards never share one.
    thread_local ForwardScratch s;
    for (size_t l = 0; l < blocks_.size(); ++l) {
        const Block &b = blocks_[l];
        std::string p = "layer" + std::to_string(l) + ".";

        rmsNormInto(x, b.attnNormGain, s.xn);
        record(p + "q", s.xn);
        record(p + "k", s.xn);
        record(p + "v", s.xn);
        attention(b, l, s.xn, positions, backend, p, collect, s);
        for (size_t i = 0; i < x.size(); ++i)
            x.flat()[i] += s.attnProj.flat()[i];

        rmsNormInto(x, b.mlpNormGain, s.mn);
        record(p + "gate", s.mn);
        record(p + "up", s.mn);
        b.gate->forwardInto(s.mn, s.g);
        b.up->forwardInto(s.mn, s.u);
        // SwiGLU: silu(g) * u, written back over g in place.
        for (size_t i = 0; i < s.g.size(); ++i) {
            float gv = s.g.flat()[i];
            float silu = gv / (1.0f + std::exp(-gv));
            s.g.flat()[i] = silu * s.u.flat()[i];
        }
        record(p + "down", s.g);
        b.down->forwardInto(s.g, s.mlp);
        for (size_t i = 0; i < x.size(); ++i)
            x.flat()[i] += s.mlp.flat()[i];
    }
    // Only a run of equal-sized chunks (decode steps over a fixed
    // active set) keeps the buffers; any other chunk releases them,
    // so a prefill's buffers never outlive it.
    if (t_len != s.rows)
        s = ForwardScratch();
    s.rows = t_len;

    Matrix xf = rmsNorm(x, finalNormGain_);
    record("head", xf);
    return head_->forward(xf);
}

namespace {

/** Positions 0..T-1: the full-forward identity mapping. */
std::vector<size_t>
identityPositions(size_t t_len)
{
    std::vector<size_t> pos(t_len);
    for (size_t t = 0; t < t_len; ++t)
        pos[t] = t;
    return pos;
}

} // anonymous namespace

void
TinyTransformer::collectCalibration(std::span<const int> tokens)
{
    calib_.clear();
    forwardInner(tokens, identityPositions(tokens.size()), nullptr,
                 &calib_);
}

Matrix
TinyTransformer::forwardLogits(std::span<const int> tokens) const
{
    return forwardInner(tokens, identityPositions(tokens.size()),
                        nullptr, nullptr);
}

Matrix
TinyTransformer::forwardChunk(std::span<const int> tokens,
                              std::span<const size_t> positions,
                              AttentionBackend &backend) const
{
    return forwardInner(tokens, positions, &backend, nullptr);
}

} // namespace model
} // namespace m2x

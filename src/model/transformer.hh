/**
 * @file
 * A small but complete decoder-only transformer: RMSNorm, RoPE
 * multi-head causal attention, SwiGLU MLP, tied token embedding and
 * LM head. Every linear layer is a pluggable LinearOp, so the same
 * network runs in FP32 reference mode, W4A4 quantized mode for any
 * format pair, or wrapped by algorithm schemes (QuaRot/GPTQ).
 *
 * The §6.4 extension — quantizing the attention KV cache (Sg-EM for
 * K/V as static-side operands, Elem-EM for Q and the probability
 * matrix P) — is available via setKvQuantizers().
 *
 * Attention is split into a projection stage (QKV linears, RoPE,
 * §6.4 operand quantization) and a score/value stage behind the
 * AttentionBackend seam, so the same block computation runs either
 * as the classic full causal forward (forwardLogits — recomputes the
 * whole prefix, the built-in backend) or incrementally against an
 * externally owned KV cache (forwardChunk — one chunk of tokens at
 * explicit positions, backend supplied by a decode engine).
 */

#ifndef M2X_MODEL_TRANSFORMER_HH__
#define M2X_MODEL_TRANSFORMER_HH__

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gemm/gemm.hh"
#include "model/config.hh"
#include "quant/matrix.hh"

namespace m2x {
namespace model {

/**
 * Builds the LinearOp for one weight matrix. @p calib_input is the
 * layer's FP input sample (rows of X) when calibration data has been
 * collected, else nullptr; GPTQ-style factories need it.
 */
using LinearFactory = std::function<std::unique_ptr<LinearOp>(
    const Matrix &weight, const std::string &layer_name,
    const Matrix *calib_input)>;

/** The plain FP32 factory (reference model). */
LinearFactory fp32LinearFactory();

/**
 * The attention seam between the transformer's per-block projection
 * stage and the score/value computation. The full-forward path uses
 * the built-in causal implementation; incremental decode engines
 * (CacheAttendBackend in src/runtime/serving.hh) implement this
 * interface to run the same block computation against an externally
 * owned KV cache.
 */
class AttentionBackend
{
  public:
    virtual ~AttentionBackend() = default;

    /**
     * Context rows [rows, dModel] for one block's chunk of queries.
     * @p q/@p k/@p v are the block's projected rows after RoPE and
     * any §6.4 operand quantization; row i belongs to the token at
     * absolute position positions[i]. The backend owns causality:
     * the built-in implementation masks j > i within the chunk, a
     * KV-cache backend appends k/v and attends over everything
     * cached so far.
     *
     * @p n_kv_heads is the grouped-query K/V head count (k/v have
     * n_kv_heads * (dModel/n_heads) columns; equal head counts is
     * classic MHA). @p window is the sliding-window span: a query at
     * position p sees only positions (p-window, p]; 0 = full causal.
     */
    virtual Matrix attend(size_t layer, const Matrix &q,
                          const Matrix &k, const Matrix &v,
                          std::span<const size_t> positions,
                          unsigned n_heads, unsigned n_kv_heads,
                          size_t window) = 0;
};

/**
 * A factory applying independent W/A group quantizers. The functors
 * create fresh quantizer instances per layer (they carry per-tensor
 * calibration state).
 */
LinearFactory quantizedLinearFactory(
    std::function<std::shared_ptr<GroupQuantizer>()> weight_q,
    std::function<std::shared_ptr<GroupQuantizer>()> act_q);

/** The synthetic decoder-only transformer. */
class TinyTransformer
{
  public:
    explicit TinyTransformer(const ModelConfig &cfg);

    /**
     * (Re)build all linear operators with @p factory. Call once for
     * the FP reference and once per quantization configuration.
     */
    void rebuild(const LinearFactory &factory);

    /**
     * Run an FP32 forward over @p tokens, capturing every linear
     * layer's input rows for later GPTQ-style calibration.
     */
    void collectCalibration(std::span<const int> tokens);

    /** Logits [T, vocab] for a causal forward pass over tokens. */
    Matrix forwardLogits(std::span<const int> tokens) const;

    /**
     * Logits [rows, vocab] for one chunk of tokens at the given
     * absolute @p positions (one per token — they drive RoPE), with
     * the attention score/value stage delegated to @p backend. This
     * is the incremental entry point: a decode engine calls it once
     * per prefill chunk or decode step, with a backend that owns the
     * KV cache. forwardLogits(tokens) is exactly
     * forwardChunk(tokens, {0..T-1}, built-in causal backend).
     */
    Matrix forwardChunk(std::span<const int> tokens,
                        std::span<const size_t> positions,
                        AttentionBackend &backend) const;

    /**
     * §6.4 extension: quantize the attention operands. K and V use
     * the static-side quantizer, Q and the post-softmax P use the
     * dynamic-side quantizer. Pass nullptr factories to disable.
     */
    void setKvQuantizers(
        std::function<std::shared_ptr<GroupQuantizer>()> kv_q,
        std::function<std::shared_ptr<GroupQuantizer>()> qp_q);

    const ModelConfig &config() const { return cfg_; }

    /** Names of all linear layers (layer order is deterministic). */
    std::vector<std::string> linearNames() const;

    /** Raw (unquantized) weight of a linear by name. */
    const Matrix &rawWeight(const std::string &name) const;

  private:
    struct Block
    {
        std::vector<float> attnNormGain;
        std::vector<float> mlpNormGain;
        Matrix wq, wk, wv, wo;       // raw weights
        Matrix wGate, wUp, wDown;
        std::unique_ptr<LinearOp> q, k, v, o;
        std::unique_ptr<LinearOp> gate, up, down;
    };

    ModelConfig cfg_;
    Matrix embedding_;    // [vocab, d]
    Matrix lmHead_;       // [vocab, d]
    std::vector<float> finalNormGain_;
    std::vector<Block> blocks_;
    std::unique_ptr<LinearOp> head_;
    std::map<std::string, Matrix> calib_;

    std::function<std::shared_ptr<GroupQuantizer>()> kvQ_;
    std::function<std::shared_ptr<GroupQuantizer>()> qpQ_;

    /**
     * Reused layer buffers, one set per thread (forwardInner keeps
     * it thread_local): every norm output and linear-layer output of
     * the block loop lands in one of these (via the into-style
     * LinearOp entry point), so a forwardInner call allocates each
     * buffer at most once and a steady-state chunk stream — decode
     * steps over a fixed active set — allocates no layer outputs at
     * all.
     */
    struct ForwardScratch
    {
        Matrix xn, mn;            // pre-attention / pre-MLP norms
        Matrix q, k, v;           // attention projections
        Matrix attnOut, attnProj; // score/value output, o-projection
        Matrix g, u, mlp;         // SwiGLU gate/up, down projection
        size_t rows = 0;          // the previous forward's rows
    };

    Matrix rmsNorm(const Matrix &x,
                   const std::vector<float> &gain) const;
    void rmsNormInto(const Matrix &x, const std::vector<float> &gain,
                     Matrix &out) const;
    /** One block's attention half; the o-projection lands in
     * @p s.attnProj. */
    void attention(const Block &b, size_t layer,
                   const Matrix &x_normed,
                   std::span<const size_t> positions,
                   AttentionBackend *backend,
                   const std::string &prefix,
                   std::map<std::string, Matrix> *collect,
                   ForwardScratch &s) const;
    Matrix causalAttend(const Matrix &q, const Matrix &k,
                        const Matrix &v) const;
    Matrix forwardInner(std::span<const int> tokens,
                        std::span<const size_t> positions,
                        AttentionBackend *backend,
                        std::map<std::string, Matrix> *collect) const;

    /** Ordered (name, raw weight, op slot) tuples. */
    struct LinearSlot
    {
        std::string name;
        const Matrix *weight;
        std::unique_ptr<LinearOp> *op;
    };
    std::vector<LinearSlot> linearSlots();
};

} // namespace model
} // namespace m2x

#endif // M2X_MODEL_TRANSFORMER_HH__

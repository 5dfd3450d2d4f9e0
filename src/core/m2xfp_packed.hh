/**
 * @file
 * Bit-level packed memory layout for M2XFP tensors (§5.2).
 *
 * Each group of 32 elements occupies three fixed-length fields kept
 * in three separate contiguous streams (alignment-friendly, no
 * fragmentation vs baseline MXFP):
 *   - 128-bit block of packed 4-bit element codes (16 bytes),
 *   - one 8-bit E8M0 shared scale,
 *   - one 8-bit metadata byte (4 subgroups x 2 bits; subgroup 0 in
 *     the low bits).
 * The same layout serves both roles: for activations the metadata
 * bits are the Elem-EM extra mantissas, for weights they are the
 * Sg-EM subgroup-scale multipliers.
 */

#ifndef M2X_CORE_M2XFP_PACKED_HH__
#define M2X_CORE_M2XFP_PACKED_HH__

#include <cstdint>
#include <vector>

#include "core/elem_em.hh"
#include "core/packed_codec.hh"
#include "core/sg_em.hh"
#include "quant/matrix.hh"

namespace m2x {

namespace runtime {
class ThreadPool;
enum class SimdIsa;
} // namespace runtime

/**
 * A matrix packed into the three M2XFP byte streams.
 *
 * Since the codec-traits seam the same class carries every
 * PackedCodec: the codec fixes the group geometry (group size,
 * nibble bytes per group) and the meaning of the scale/metadata
 * bytes, while the three-stream layout — and therefore every stream
 * accessor — is codec-independent. The Elem-EM entry points below
 * (packActivations/packWeights/unpack*) are the original paper-pair
 * API and stay byte-for-byte what they always were; the *Codec entry
 * points generalize them over the format axis.
 */
class PackedM2xfpTensor
{
  public:
    /** @{ Paper (Elem-EM pair) geometry; codec-aware callers use
     *  codecInfo() instead. */
    static constexpr unsigned groupSize = 32;
    static constexpr unsigned subgroupSize = 8;
    static constexpr unsigned bytesPerGroupElems = 16;
    /** @} */

    /** Pack a row-major matrix as activations (Elem-EM-top1). */
    static PackedM2xfpTensor packActivations(const Matrix &m,
                                             const ElemEmQuantizer &q);

    /** @{
     * Fast-path online packing: byte-identical streams to
     * packActivations(m, q), produced by the runtime encoder
     * (src/runtime/packed_quantize) — per-ISA SIMD kernels,
     * parallelized over rows on @p pool (null = the global pool).
     * Requires the fixed-shared-scale paper activation config
     * (adaptiveScale off — asserted). The into-variant reuses
     * @p out's stream storage across calls, so a steady-state
     * forward pass allocates nothing. Defined in the m2x_runtime
     * library; callers must link m2x::m2x_runtime.
     */
    static PackedM2xfpTensor packActivations(const Matrix &m,
                                             const ElemEmQuantizer &q,
                                             runtime::ThreadPool *pool,
                                             runtime::SimdIsa isa);
    static void packActivations(const Matrix &m,
                                const ElemEmQuantizer &q,
                                runtime::ThreadPool *pool,
                                runtime::SimdIsa isa,
                                PackedM2xfpTensor &out);
    /** @} */

    /** @{
     * Growable activation-role tensor — the KV-cache substrate. An
     * empty tensor is created with a fixed column count, then rows
     * are appended incrementally: each append encodes @p n_rows
     * contiguous row-major rows (of cols() floats each) through the
     * fast-path encoder straight onto the tails of the three streams.
     * Amortized O(1) per row (vector doubling); existing bytes are
     * never rewritten, so zero-copy group accessors stay valid for
     * all previously appended rows. Same config restrictions as the
     * fast-path packActivations (asserted). Multi-row appends
     * (prefill chunks) distribute the row encodes over @p pool
     * (null = the global pool) exactly like packActivations;
     * single-row appends skip the pool. appendActivationRows is
     * defined in the m2x_runtime library.
     */
    static PackedM2xfpTensor emptyActivations(size_t cols,
                                              const ElemEmQuantizer &q);
    void appendActivationRows(const float *rows, size_t n_rows,
                              const ElemEmQuantizer &q,
                              runtime::SimdIsa isa,
                              runtime::ThreadPool *pool = nullptr);
    /** @} */

    /** @{
     * Storage-recycling hooks for pooled owners (the KV page arena):
     * reserveActivationRows pre-sizes the three stream capacities
     * for @p rows rows so subsequent appends never reallocate, and
     * clearActivationRows drops the rows while keeping the stream
     * capacity, so a recycled tensor refills allocation-free. Only
     * meaningful on growable activation tensors (emptyActivations).
     */
    void reserveActivationRows(size_t rows);
    void clearActivationRows();
    /** @} */

    /** Pack a row-major matrix as weights (Sg-EM-2bit adaptive). */
    static PackedM2xfpTensor packWeights(const Matrix &m,
                                         const SgEmQuantizer &q);

    /**
     * Fast-path weight packing: byte-identical streams to
     * packWeights(m, q), produced by the runtime's per-ISA Sg-EM
     * encoder (src/runtime/packed_quantize) and parallelized over
     * rows on @p pool (null = the global pool). Requires the packed
     * layout (g32/sg8, 2-bit Sg-EM — asserted); the rule and the
     * adaptive flag come from @p q. Defined in the m2x_runtime
     * library.
     */
    static PackedM2xfpTensor packWeights(const Matrix &m,
                                         const SgEmQuantizer &q,
                                         runtime::ThreadPool *pool,
                                         runtime::SimdIsa isa);

    /** @{
     * Codec-generic functional packers/unpackers: the scalar
     * bit-exact oracle of every registered format, built on each
     * codec's own encodeGroup/decodeGroup with the same zero-padded
     * tail handling as the Elem-EM packers. For PackedCodec::ElemEm
     * they produce byte-identical streams to packActivations /
     * packWeights with the paper quantizers. Defined in
     * core/packed_formats.cc.
     */
    static PackedM2xfpTensor packActivationsCodec(const Matrix &m,
                                                  PackedCodec codec);
    static PackedM2xfpTensor packWeightsCodec(const Matrix &m,
                                              PackedCodec codec);
    Matrix unpackActivationsCodec() const;
    Matrix unpackWeightsCodec() const;
    /** @} */

    /** @{
     * Codec-generic runtime packing (defined in the m2x_runtime
     * library), byte-exact against the functional packers on every
     * tier: Elem-EM activations route through the per-ISA Elem-EM
     * encoder; sg_em activations and the weights of every E8M0 codec
     * through the per-ISA Sg-EM encoder; Elem-EE activations and
     * M2-NVFP4 through their functional row encoders, parallelized
     * over rows. emptyActivationsCodec / appendActivationRowsCodec
     * are the growable KV-cache shape of the same seam.
     */
    static PackedM2xfpTensor packActivationsCodec(
        const Matrix &m, PackedCodec codec, runtime::ThreadPool *pool,
        runtime::SimdIsa isa);
    static void packActivationsCodec(const Matrix &m,
                                     PackedCodec codec,
                                     runtime::ThreadPool *pool,
                                     runtime::SimdIsa isa,
                                     PackedM2xfpTensor &out);
    static PackedM2xfpTensor emptyActivationsCodec(size_t cols,
                                                   PackedCodec codec);
    void appendActivationRowsCodec(const float *rows, size_t n_rows,
                                   runtime::SimdIsa isa,
                                   runtime::ThreadPool *pool = nullptr);
    static PackedM2xfpTensor packWeightsCodec(
        const Matrix &m, PackedCodec codec, runtime::ThreadPool *pool,
        runtime::SimdIsa isa);
    /** @} */

    /**
     * Assemble a tensor directly from the three raw byte streams
     * (sizes must match the [rows, cols] group layout of @p codec —
     * asserted). This bypasses the quantizers entirely: it exists for
     * deserialization and for tests that need exhaustive control of
     * the stream bytes (e.g. the SIMD decode sweeps), so the caller
     * is responsible for the streams holding valid codes.
     */
    static PackedM2xfpTensor fromRawStreams(
        size_t rows, size_t cols, std::vector<uint8_t> elements,
        std::vector<uint8_t> scales, std::vector<uint8_t> meta,
        PackedCodec codec = PackedCodec::ElemEm);

    /** Reconstruct the dequantized matrix (activation layout). */
    Matrix unpackActivations(const ElemEmQuantizer &q) const;

    /** Reconstruct the dequantized matrix (weight layout). */
    Matrix unpackWeights(const SgEmQuantizer &q) const;

    size_t rows() const { return rows_; }
    size_t cols() const { return cols_; }
    size_t groupsPerRow() const { return groupsPerRow_; }

    /** @{ The format axis: this tensor's codec and its geometry. */
    PackedCodec codec() const { return codec_; }
    const PackedCodecInfo &codecInfo() const
    {
        return packedCodecInfo(codec_);
    }
    /** @} */

    /** @{ Raw streams (exposed for the memory-traffic model). */
    const std::vector<uint8_t> &elementStream() const
    {
        return elements_;
    }
    const std::vector<uint8_t> &scaleStream() const { return scales_; }
    const std::vector<uint8_t> &metadataStream() const { return meta_; }
    /** @} */

    /** Total packed bytes across all three streams. */
    size_t totalBytes() const
    {
        return elements_.size() + scales_.size() + meta_.size();
    }

    /** Effective bits per (unpadded) element. */
    double bitsPerElement() const;

    /** Fetch the 4-bit code of element (r, c). */
    uint8_t elementCode(size_t r, size_t c) const;

    /** Fetch the 2-bit metadata of (row, group, subgroup). */
    uint8_t subgroupMeta(size_t r, size_t group, size_t sub) const;

    /** @{
     * Zero-copy group accessors for the packed-domain execution
     * runtime (src/runtime): the scale code, the 16 packed element
     * bytes and the metadata byte of (row, group), straight from the
     * streams.
     */
    uint8_t
    scaleCode(size_t r, size_t group) const
    {
        return scales_[r * groupsPerRow_ + group];
    }
    const uint8_t *
    groupElementBytes(size_t r, size_t group) const
    {
        return elements_.data() +
               (r * groupsPerRow_ + group) * groupElemBytes_;
    }
    uint8_t
    groupMetaByte(size_t r, size_t group) const
    {
        return meta_[r * groupsPerRow_ + group];
    }
    /** @} */

  private:
    size_t rows_ = 0;
    size_t cols_ = 0;
    size_t groupsPerRow_ = 0;
    PackedCodec codec_ = PackedCodec::ElemEm;
    /** @{ Geometry cache of codec_ (hot accessors avoid the info
     *  lookup). */
    unsigned codecGroupSize_ = groupSize;
    unsigned groupElemBytes_ = bytesPerGroupElems;
    /** @} */
    std::vector<uint8_t> elements_;
    std::vector<uint8_t> scales_;
    std::vector<uint8_t> meta_;

    /** Set codec_ and refresh the geometry cache. */
    void setCodec(PackedCodec codec);

    void setElementCode(size_t r, size_t c, uint8_t code);
    void reserveShape(size_t rows, size_t cols);

    /** The functional one-row encoders' signature (see
     *  packActivationRowCodec below). */
    using RowEncodeFn = void (*)(PackedCodec codec, const float *src,
                                 size_t cols, uint8_t *elems,
                                 uint8_t *scales, uint8_t *meta);

    /**
     * Encode @p n_rows rows of @p src into the stream slots from row
     * @p first_row on: through the per-ISA Sg-EM encoder with @p q's
     * configuration when @p q is set, else through @p functional_row.
     * Single rows run inline, more over @p pool. Defined in the
     * m2x_runtime library.
     */
    void encodeRows(const float *src, size_t n_rows, size_t first_row,
                    const SgEmQuantizer *q, RowEncodeFn functional_row,
                    runtime::ThreadPool *pool, runtime::SimdIsa isa);

    /**
     * Reshape for the fast-path packer, reusing existing stream
     * storage when capacity allows. Unlike reserveShape the streams
     * are not zero-filled: the encoder kernels write every byte of
     * every group (tail groups included).
     */
    void resizeShape(size_t rows, size_t cols);
};

/** @{
 * Functional one-row stream encoders of the codec seam: encode
 * @p cols floats into the row's group slots (ceil(cols/groupSize)
 * groups of element bytes, scale codes and metadata bytes for
 * @p codec's geometry), zero-padding the tail group exactly like the
 * matrix packers. These are the per-codec analogue of the runtime's
 * QuantizeRowFn — byte-exact on every ISA tier by construction —
 * and the building block of the parallel codec packers. Defined in
 * core/packed_formats.cc.
 */
void packActivationRowCodec(PackedCodec codec, const float *src,
                            size_t cols, uint8_t *elems,
                            uint8_t *scales, uint8_t *meta);
void packWeightRowCodec(PackedCodec codec, const float *src,
                        size_t cols, uint8_t *elems, uint8_t *scales,
                        uint8_t *meta);
/** @} */

} // namespace m2x

#endif // M2X_CORE_M2XFP_PACKED_HH__

/**
 * @file
 * The codec-traits seam of the packed execution runtime, and its only
 * decode-table source.
 *
 * The functional codecs (core/elem_em, core/sg_em, ...) decode with
 * branchy float math and per-group vector allocations — fine for
 * verification, far too slow for a compute engine. CodecTraits turns
 * group dequantization into pure loads, per codec of the PackedCodec
 * axis:
 *   - the stream geometry (group size, nibble bytes — via the
 *     codec's PackedCodecInfo),
 *   - a 16-entry FP4 E2M1 value table and its 256-entry byte-pair
 *     expansion (both nibbles of a packed element byte at once),
 *   - the scale-byte rule (E8M0 exponent or NVFP4's FP8 E4M3) as a
 *     256-entry value table,
 *   - the subgroup metadata semantics, classified by GroupDecodeKind:
 *     a top-1 value *replacement* (Elem-EM's FP6 re-round, shared by
 *     M2-NVFP4 activations), a top-1 value *multiplier* (Elem-EE's
 *     exponent offset) or a whole-subgroup scale multiplier (Sg-EM,
 *     the weight role of every codec).
 *
 * Every table entry is produced by the same functions the functional
 * codecs call, so the generic kernels below are bit-identical to
 * PackedM2xfpTensor::unpackActivationsCodec / unpackWeightsCodec —
 * asserted by tests/runtime/codec_traits_test.cc. They are also the
 * scalar tier of the GEMM and attend decode; the vector tiers
 * (runtime/packed_gemm_kernels.hh) stage the same tables into
 * registers and are held bit-identical to them.
 *
 * The generic kernels are deliberately signature-compatible with the
 * drivers' row-decoder type (detail::DecodeRowsFn): one selector
 * (detail::rowsDecoder) picks a per-ISA kernel wherever
 * decodeFamily() names one and falls back to these for every other
 * stream, so adding a format never touches a kernel table.
 */

#ifndef M2X_RUNTIME_CODEC_TRAITS_HH__
#define M2X_RUNTIME_CODEC_TRAITS_HH__

#include <cstdint>

#include "core/m2xfp_packed.hh"

namespace m2x {
namespace runtime {

/** Two decoded FP4 values of one packed element byte. */
struct Fp4Pair
{
    float lo; //!< low nibble (even element)
    float hi; //!< high nibble (odd element)
};

/** How a codec's 2-bit subgroup metadata acts during decode. */
enum class GroupDecodeKind : uint8_t
{
    /** The subgroup's top-1 element (FP4-domain selection) is
     *  replaced by a metadata-indexed value (Elem-EM's FP6
     *  re-round). */
    Top1Replace,
    /** The top-1 element's decoded value is multiplied by a
     *  metadata-indexed factor (Elem-EE's exponent offset). */
    Top1Multiply,
    /** The whole subgroup's scale is multiplied by a
     *  metadata-indexed factor (Sg-EM). */
    SubgroupMult,
};

/** Immutable per-codec decode tables; build once via get(). */
struct CodecTraits
{
    PackedCodec codec;
    const PackedCodecInfo *info;

    /** Metadata semantics of the activation role (the weight role is
     *  SubgroupMult for every codec). */
    GroupDecodeKind actKind;

    /** fp4Value[code] = FP4 E2M1 decode of the 4-bit code. */
    float fp4Value[16];

    /** fp4Pair[byte] = both nibbles of a packed element byte. */
    Fp4Pair fp4Pair[256];

    /**
     * scaleValue[code] = decoded shared scale of the scale byte:
     * 2^(code-127) for E8M0 codecs (entry 255 = NaN, never packed),
     * FP8 E4M3 decode for scaleIsFp8 codecs.
     */
    float scaleValue[256];

    /** Subgroup scale multiplier per metadata code: 1 + m/4. */
    float subMult[4];

    /**
     * Top1Replace: the metadata-adjusted signed value of the top-1
     * element, indexed [fp4 code][meta] (before the shared scale).
     */
    float top1Value[16][4];

    /** Top1Multiply: the top-1 value factor 2^(meta - bias). */
    float top1Mult[4];

    /** The process-wide tables of @p codec (built on first use). */
    static const CodecTraits &get(PackedCodec codec);
};

/** The kernel family that decodes a stream (see decodeFamily). */
enum class DecodeFamily : uint8_t
{
    /** The generic scalar traits kernels below. */
    Generic,
    /** The tier's Elem-EM rows kernel
     *  (GemmKernels::decodeActivationRows). */
    ElemEm,
    /** The tier's Sg-EM rows kernel (GemmKernels::decodeWeightRows;
     *  for GEMM weight panels its sliver form). */
    SgEm,
};

/**
 * The codec seam's decode dispatch rule. It keys on what a stream
 * is — its group decode kind and geometry — never on the codec name:
 * a g32/sg8 stream with an E8M0 scale decodes through the per-ISA
 * kernel family of its kind (SubgroupMult: the Sg-EM kernels, which
 * covers every E8M0 weight and the sg_em activations and KV pages;
 * Top1Replace: the Elem-EM kernels); every other stream (Elem-EE's
 * top-1 multiplier, M2-NVFP4's g16 FP8-scaled geometry) through the
 * generic kernels. The per-ISA kernels stage the E8M0 codecs'
 * CodecTraits tables, which are identical for every E8M0 codec, so
 * the choice never changes a decoded float. detail::rowsDecoder is
 * the one place that applies the rule.
 */
DecodeFamily decodeFamily(GroupDecodeKind kind,
                          const PackedCodecInfo &info);

/** @{
 * Codec-generic scalar decode kernels, dispatching on t.codec() — the
 * scalar tier of every decode. Row buffers are group-padded
 * (groupsPerRow * groupSize floats; padding elements decode to +0.0
 * for every codec). The rows forms decode rows [row0, row0 + n_rows)
 * to out + r * stride (stride >= the padded row) with one traits
 * lookup per call: codecDecodeRows in the activation role,
 * codecDecodeWeightRows in the weight role.
 */
void codecDecodeActivationGroup(const PackedM2xfpTensor &t, size_t row,
                                size_t group, float *out);
void codecDecodeWeightGroup(const PackedM2xfpTensor &t, size_t row,
                            size_t group, float *out);
void codecDecodeActivationRow(const PackedM2xfpTensor &t, size_t row,
                              float *out);
void codecDecodeWeightRow(const PackedM2xfpTensor &t, size_t row,
                          float *out);
void codecDecodeRows(const PackedM2xfpTensor &t, size_t row0,
                     size_t n_rows, size_t stride, float *out);
void codecDecodeWeightRows(const PackedM2xfpTensor &t, size_t row0,
                           size_t n_rows, size_t stride, float *out);
/** @} */

} // namespace runtime
} // namespace m2x

#endif // M2X_RUNTIME_CODEC_TRAITS_HH__

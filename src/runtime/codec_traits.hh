/**
 * @file
 * The codec-traits seam of the packed execution runtime.
 *
 * runtime/decode_lut hardwires the paper pair (Elem-EM activations,
 * Sg-EM weights). CodecTraits generalizes the same LUT family over
 * the PackedCodec axis: per codec, the tables capture
 *   - the stream geometry (group size, nibble bytes — via the
 *     codec's PackedCodecInfo),
 *   - the scale-byte rule (E8M0 exponent or NVFP4's FP8 E4M3),
 *   - the subgroup metadata semantics, classified by GroupDecodeKind:
 *     a top-1 value *replacement* (Elem-EM's FP6 re-round, shared by
 *     M2-NVFP4 activations), a top-1 value *multiplier* (Elem-EE's
 *     exponent offset) or a whole-subgroup scale multiplier (Sg-EM,
 *     the weight role of every codec).
 *
 * Every table entry is produced by the same functions the functional
 * codecs call, so the generic kernels below are bit-identical to
 * PackedM2xfpTensor::unpackActivationsCodec / unpackWeightsCodec —
 * asserted by tests/runtime/codec_traits_test.cc. For
 * PackedCodec::ElemEm they are additionally bit-identical to the
 * legacy decode_lut / per-ISA kernels, which keeps the paper-pair
 * fast paths byte-for-byte intact.
 *
 * The generic kernels are deliberately signature-compatible with the
 * GEMM's DecodeRowFn and the attend's DecodeRowsFn: the drivers pick
 * a per-ISA kernel wherever decodeFamily() names one and fall back
 * to these for every other stream, so adding a format never touches
 * a kernel table.
 */

#ifndef M2X_RUNTIME_CODEC_TRAITS_HH__
#define M2X_RUNTIME_CODEC_TRAITS_HH__

#include <cstdint>

#include "core/m2xfp_packed.hh"
#include "runtime/decode_lut.hh"

namespace m2x {
namespace runtime {

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
    /** The per-ISA Elem-EM kernels (decodeActivationRow{,Avx2},
     *  the attend tiers' decodeRows). */
    ElemEm,
    /** The per-ISA Sg-EM kernels (decodeWeightRow{,Avx2,Avx512};
     *  for GEMM weight panels decodeWeightSliver{Avx2,Avx512}). */
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
 * generic kernels. On those geometries the per-ISA kernels read the
 * same values as the traits tables (decode_lut's FP4, E8M0,
 * multiplier and FP6 tables equal the E8M0 codecs' CodecTraits), so
 * the choice never changes a decoded float.
 */
DecodeFamily decodeFamily(GroupDecodeKind kind,
                          const PackedCodecInfo &info);

/** @{
 * Codec-generic scalar decode kernels, dispatching on t.codec().
 * Signature-compatible with the GEMM's DecodeRowFn
 * (codecDecodeActivationRow / codecDecodeWeightRow) and the attend's
 * DecodeRowsFn (codecDecodeRows); row buffers are group-padded
 * exactly like the Elem-EM kernels (groupsPerRow * groupSize floats,
 * padding elements decode to +0.0 for every codec).
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
/** @} */

} // namespace runtime
} // namespace m2x

#endif // M2X_RUNTIME_CODEC_TRAITS_HH__

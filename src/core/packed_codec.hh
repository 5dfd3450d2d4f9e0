/**
 * @file
 * The codec axis of the packed execution runtime.
 *
 * The three-stream packed layout (element nibbles / one scale byte /
 * one metadata byte per group) hosts more formats than the paper's
 * Elem-EM pair: every codec in the tree that is "FP4 elements + one
 * 8-bit shared scale + <= 4 subgroups x 2 metadata bits per group"
 * maps onto the exact same byte geometry, differing only in group
 * width and in how the scale and metadata bytes are interpreted.
 * PackedCodec names one such format *pair* (an activation-role and a
 * weight-role semantics over the same streams); PackedCodecInfo is
 * the compile-time stream-geometry description every layout-touching
 * component (tensor, GEMM driver, encoder, KV arena) consumes instead
 * of hardcoded Elem-EM constants.
 *
 * The runtime-facing decode/LUT side of the seam lives in
 * runtime/codec_traits.hh; this header is layout-only so core stays
 * free of kernel concerns.
 */

#ifndef M2X_CORE_PACKED_CODEC_HH__
#define M2X_CORE_PACKED_CODEC_HH__

#include <cstdint>
#include <span>

namespace m2x {

/** A format pair the packed runtime can execute. */
enum class PackedCodec : uint8_t {
    /** Paper default: Elem-EM-top1 acts + Sg-EM-2bit weights
     *  (g32/sg8, E8M0 scale, 4.5 bits/element). */
    ElemEm,
    /** Elem-EE acts (top-1 extra *exponent*, offset bias 2) + Sg-EM
     *  weights — the taxonomy's fourth quadrant at runtime speed. */
    ElemEe,
    /** Sg-EM-2bit on both roles: subgroup-scale multipliers for
     *  activations too (no top-1 selection). */
    SgEm,
    /** M2-NVFP4 (Tbl. 6): g16/sg4 over an FP8 E4M3 block scale,
     *  Elem-EM-top1 acts + Sg-EM weights, 5.0 bits/element. */
    M2Nvfp4,
};

/** Number of registered codecs (allPackedCodecs().size()). */
inline constexpr size_t packedCodecCount = 4;

/** Stream-geometry + scale-rule description of one codec. */
struct PackedCodecInfo
{
    const char *name;           //!< stable lowercase id for env/JSON
    unsigned groupSize;         //!< elements per group
    unsigned subgroupSize;      //!< elements per metadata granule
    unsigned bytesPerGroupElems; //!< groupSize / 2 packed nibbles
    double bitsPerElement;      //!< (elem + scale + meta bits) / group
    bool scaleIsFp8;            //!< FP8 E4M3 scale byte; else E8M0
};

/** Geometry of @p codec (static storage, never fails). */
const PackedCodecInfo &packedCodecInfo(PackedCodec codec);

/** packedCodecInfo(codec).name. */
const char *packedCodecName(PackedCodec codec);

/**
 * Parse a codec name ("elem_em", "elem_ee", "sg_em", "m2_nvfp4").
 * Returns false (and leaves @p out untouched) on anything else.
 */
bool parsePackedCodec(const char *s, PackedCodec &out);

/** Every registered codec, ElemEm first. */
std::span<const PackedCodec> allPackedCodecs();

/**
 * The process-wide default codec, resolved once on first call: the
 * M2X_FORMAT environment override if set (malformed values warn and
 * fall back), else ElemEm. The session-level config (ServingConfig)
 * defaults to this; low-level APIs keep explicit ElemEm defaults so
 * byte-exactness contracts stay pinned.
 */
PackedCodec defaultPackedCodec();

namespace codec_detail {

/**
 * Pure resolution of an M2X_FORMAT value (nullptr = unset) to a
 * codec; exposed so tests can cover the parsing without re-execing.
 */
PackedCodec resolvePackedCodec(const char *env);

} // namespace codec_detail

} // namespace m2x

#endif // M2X_CORE_PACKED_CODEC_HH__

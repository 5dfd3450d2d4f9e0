#include "runtime/codec_traits.hh"

#include <array>
#include <cmath>

#include "core/elem_em.hh"
#include "formats/e8m0.hh"
#include "formats/minifloat.hh"
#include "util/logging.hh"

namespace m2x {
namespace runtime {

namespace {

GroupDecodeKind
actKindOf(PackedCodec codec)
{
    switch (codec) {
    case PackedCodec::ElemEm:
    case PackedCodec::M2Nvfp4:
        return GroupDecodeKind::Top1Replace;
    case PackedCodec::ElemEe:
        return GroupDecodeKind::Top1Multiply;
    case PackedCodec::SgEm:
        return GroupDecodeKind::SubgroupMult;
    }
    m2x_assert(false, "bad PackedCodec");
    return GroupDecodeKind::SubgroupMult;
}

CodecTraits
buildTraits(PackedCodec codec)
{
    const Minifloat &fp4 = Minifloat::fp4e2m1();
    const Minifloat &fp6 = Minifloat::fp6e2m3();
    const Minifloat &fp8 = Minifloat::fp8e4m3();

    CodecTraits t;
    t.codec = codec;
    t.info = &packedCodecInfo(codec);
    t.actKind = actKindOf(codec);

    for (uint32_t c = 0; c < 16; ++c)
        t.fp4Value[c] = fp4.decode(c);
    for (uint32_t b = 0; b < 256; ++b)
        t.fp4Pair[b] = {t.fp4Value[b & 0xfu], t.fp4Value[b >> 4]};

    if (t.info->scaleIsFp8) {
        for (uint32_t c = 0; c < 256; ++c)
            t.scaleValue[c] = fp8.decode(c);
    } else {
        for (uint32_t c = 0; c < 255; ++c)
            t.scaleValue[c] =
                ScaleE8m0::fromCode(static_cast<uint8_t>(c)).value();
        t.scaleValue[255] = std::nanf("");
    }

    for (uint32_t m = 0; m < 4; ++m)
        t.subMult[m] = 1.0f + static_cast<float>(m) / 4.0f;

    // Top1Replace: Elem-EM's FP6 promotion fp4_mag*4 + meta - 1,
    // including the & 0x1f wrap of the never-emitted mag=0/meta=0
    // corner — the same guarded arithmetic as decode_lut.
    for (uint32_t c = 0; c < 16; ++c) {
        uint32_t mag4 = c & 0x7u;
        bool neg = (c >> 3) & 1u;
        for (uint32_t m = 0; m < 4; ++m) {
            uint32_t mag6 = ElemEmQuantizer::decodeFp6Mag(
                mag4, static_cast<uint8_t>(m));
            float mag = fp6.decode(mag6 & 0x1fu);
            t.top1Value[c][m] = neg ? -mag : mag;
        }
    }

    // Top1Multiply: Elem-EE's 2-bit exponent offset, bias 2.
    for (uint32_t m = 0; m < 4; ++m)
        t.top1Mult[m] =
            std::exp2(static_cast<float>(static_cast<int>(m) - 2));

    return t;
}

std::array<CodecTraits, packedCodecCount>
buildAllTraits()
{
    std::array<CodecTraits, packedCodecCount> all{};
    for (PackedCodec c : allPackedCodecs())
        all[static_cast<size_t>(c)] = buildTraits(c);
    return all;
}

/**
 * FP4-domain top-1 of one subgroup: largest magnitude code, ties to
 * the lowest index — exactly ElemEmQuantizer::top1Index.
 */
unsigned
top1Of(const uint8_t *codes, unsigned n)
{
    unsigned best = 0;
    uint32_t best_mag = codes[0] & 0x7u;
    for (unsigned i = 1; i < n; ++i) {
        uint32_t m = codes[i] & 0x7u;
        if (m > best_mag) {
            best_mag = m;
            best = i;
        }
    }
    return best;
}

/** Sg-EM-style decode: out = fp4 * (sval * subMult[meta_s]). */
void
decodeGroupSubgroupMult(const CodecTraits &tr,
                        const PackedM2xfpTensor &t, size_t row,
                        size_t group, float *out)
{
    const PackedCodecInfo &info = *tr.info;
    const uint8_t *bytes = t.groupElementBytes(row, group);
    float sval = tr.scaleValue[t.scaleCode(row, group)];
    uint8_t meta = t.groupMetaByte(row, group);

    unsigned n_sub = info.groupSize / info.subgroupSize;
    float sub_scale[4];
    for (unsigned s = 0; s < n_sub; ++s)
        sub_scale[s] = sval * tr.subMult[(meta >> (2 * s)) & 0x3u];

    unsigned bytes_per_sub = info.subgroupSize / 2;
    for (unsigned i = 0; i < info.bytesPerGroupElems; ++i) {
        uint8_t b = bytes[i];
        float scale = sub_scale[i / bytes_per_sub];
        Fp4Pair p = tr.fp4Pair[b];
        out[2 * i] = p.lo * scale;
        out[2 * i + 1] = p.hi * scale;
    }
}

/** Elem-EM-style decode: fp4 * sval, top-1 replaced via top1Value. */
void
decodeGroupTop1Replace(const CodecTraits &tr,
                       const PackedM2xfpTensor &t, size_t row,
                       size_t group, float *out)
{
    const PackedCodecInfo &info = *tr.info;
    const uint8_t *bytes = t.groupElementBytes(row, group);
    float sval = tr.scaleValue[t.scaleCode(row, group)];
    uint8_t meta = t.groupMetaByte(row, group);

    uint8_t codes[PackedM2xfpTensor::groupSize];
    for (unsigned i = 0; i < info.bytesPerGroupElems; ++i) {
        uint8_t b = bytes[i];
        codes[2 * i] = b & 0xfu;
        codes[2 * i + 1] = b >> 4;
        Fp4Pair p = tr.fp4Pair[b];
        out[2 * i] = p.lo * sval;
        out[2 * i + 1] = p.hi * sval;
    }

    unsigned n_sub = info.groupSize / info.subgroupSize;
    for (unsigned s = 0; s < n_sub; ++s) {
        const uint8_t *sc = codes + s * info.subgroupSize;
        unsigned best = top1Of(sc, info.subgroupSize);
        uint8_t mcode = (meta >> (2 * s)) & 0x3u;
        out[s * info.subgroupSize + best] =
            tr.top1Value[sc[best]][mcode] * sval;
    }
}

/** Elem-EE-style decode: fp4 * sval, top-1 scaled by top1Mult. */
void
decodeGroupTop1Multiply(const CodecTraits &tr,
                        const PackedM2xfpTensor &t, size_t row,
                        size_t group, float *out)
{
    const PackedCodecInfo &info = *tr.info;
    const uint8_t *bytes = t.groupElementBytes(row, group);
    float sval = tr.scaleValue[t.scaleCode(row, group)];
    uint8_t meta = t.groupMetaByte(row, group);

    uint8_t codes[PackedM2xfpTensor::groupSize];
    for (unsigned i = 0; i < info.bytesPerGroupElems; ++i) {
        uint8_t b = bytes[i];
        codes[2 * i] = b & 0xfu;
        codes[2 * i + 1] = b >> 4;
        Fp4Pair p = tr.fp4Pair[b];
        out[2 * i] = p.lo * sval;
        out[2 * i + 1] = p.hi * sval;
    }

    unsigned n_sub = info.groupSize / info.subgroupSize;
    for (unsigned s = 0; s < n_sub; ++s) {
        const uint8_t *sc = codes + s * info.subgroupSize;
        unsigned best = top1Of(sc, info.subgroupSize);
        uint8_t mcode = (meta >> (2 * s)) & 0x3u;
        out[s * info.subgroupSize + best] *= tr.top1Mult[mcode];
    }
}

} // anonymous namespace

const CodecTraits &
CodecTraits::get(PackedCodec codec)
{
    static const std::array<CodecTraits, packedCodecCount> all =
        buildAllTraits();
    size_t i = static_cast<size_t>(codec);
    m2x_assert(i < packedCodecCount, "bad PackedCodec %zu", i);
    return all[i];
}

DecodeFamily
decodeFamily(GroupDecodeKind kind, const PackedCodecInfo &info)
{
    bool paper_geometry =
        info.groupSize == PackedM2xfpTensor::groupSize &&
        info.subgroupSize == PackedM2xfpTensor::subgroupSize &&
        !info.scaleIsFp8;
    if (!paper_geometry)
        return DecodeFamily::Generic;
    switch (kind) {
    case GroupDecodeKind::Top1Replace:
        return DecodeFamily::ElemEm;
    case GroupDecodeKind::SubgroupMult:
        return DecodeFamily::SgEm;
    case GroupDecodeKind::Top1Multiply:
        break;
    }
    return DecodeFamily::Generic;
}

void
codecDecodeActivationGroup(const PackedM2xfpTensor &t, size_t row,
                           size_t group, float *out)
{
    const CodecTraits &tr = CodecTraits::get(t.codec());
    switch (tr.actKind) {
    case GroupDecodeKind::Top1Replace:
        decodeGroupTop1Replace(tr, t, row, group, out);
        break;
    case GroupDecodeKind::Top1Multiply:
        decodeGroupTop1Multiply(tr, t, row, group, out);
        break;
    case GroupDecodeKind::SubgroupMult:
        decodeGroupSubgroupMult(tr, t, row, group, out);
        break;
    }
}

void
codecDecodeWeightGroup(const PackedM2xfpTensor &t, size_t row,
                       size_t group, float *out)
{
    const CodecTraits &tr = CodecTraits::get(t.codec());
    decodeGroupSubgroupMult(tr, t, row, group, out);
}

void
codecDecodeActivationRow(const PackedM2xfpTensor &t, size_t row,
                         float *out)
{
    size_t gs = t.codecInfo().groupSize;
    for (size_t g = 0; g < t.groupsPerRow(); ++g)
        codecDecodeActivationGroup(t, row, g, out + g * gs);
}

void
codecDecodeWeightRow(const PackedM2xfpTensor &t, size_t row,
                     float *out)
{
    size_t gs = t.codecInfo().groupSize;
    for (size_t g = 0; g < t.groupsPerRow(); ++g)
        codecDecodeWeightGroup(t, row, g, out + g * gs);
}

void
codecDecodeRows(const PackedM2xfpTensor &t, size_t row0, size_t n_rows,
                size_t stride, float *out)
{
    for (size_t r = 0; r < n_rows; ++r)
        codecDecodeActivationRow(t, row0 + r, out + r * stride);
}

} // namespace runtime
} // namespace m2x

#include "runtime/codec_traits.hh"

#include <array>
#include <cmath>
#include <type_traits>

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
    // corner — the same guarded arithmetic as
    // ElemEmQuantizer::decodeGroup.
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
template <unsigned N>
unsigned
top1Of(const uint8_t *codes)
{
    // Branch-free: random codes would mispredict a taken branch.
    unsigned best = 0;
    uint32_t best_mag = codes[0] & 0x7u;
    for (unsigned i = 1; i < N; ++i) {
        uint32_t m = codes[i] & 0x7u;
        bool gt = m > best_mag;
        best = gt ? i : best;
        best_mag = gt ? m : best_mag;
    }
    return best;
}

/**
 * Decode one group whose metadata acts as @p Kind, for a codec of
 * group size GS — a compile-time constant, so every loop unrolls.
 * Every codec has four 2-bit metadata granules per group.
 */
template <GroupDecodeKind Kind, unsigned GS>
void
decodeGroup(const CodecTraits &tr, const PackedM2xfpTensor &t,
            size_t row, size_t group, float *out)
{
    constexpr unsigned SG = GS / 4;
    const uint8_t *bytes = t.groupElementBytes(row, group);
    float sval = tr.scaleValue[t.scaleCode(row, group)];
    uint8_t meta = t.groupMetaByte(row, group);

    if constexpr (Kind == GroupDecodeKind::SubgroupMult) {
        // out = fp4 * (sval * subMult[meta_s]).
        float sub_scale[4];
        for (unsigned s = 0; s < 4; ++s)
            sub_scale[s] = sval * tr.subMult[(meta >> (2 * s)) & 0x3u];
        for (unsigned i = 0; i < GS / 2; ++i) {
            Fp4Pair p = tr.fp4Pair[bytes[i]];
            out[2 * i] = p.lo * sub_scale[i / (SG / 2)];
            out[2 * i + 1] = p.hi * sub_scale[i / (SG / 2)];
        }
    } else {
        // out = fp4 * sval, then each subgroup's top-1 is replaced by
        // top1Value (Elem-EM) or scaled by top1Mult (Elem-EE).
        uint8_t codes[GS];
        for (unsigned i = 0; i < GS / 2; ++i) {
            uint8_t b = bytes[i];
            codes[2 * i] = b & 0xfu;
            codes[2 * i + 1] = b >> 4;
            Fp4Pair p = tr.fp4Pair[b];
            out[2 * i] = p.lo * sval;
            out[2 * i + 1] = p.hi * sval;
        }
        for (unsigned s = 0; s < 4; ++s) {
            const uint8_t *sc = codes + s * SG;
            unsigned best = top1Of<SG>(sc);
            uint8_t mcode = (meta >> (2 * s)) & 0x3u;
            if constexpr (Kind == GroupDecodeKind::Top1Replace)
                out[s * SG + best] = tr.top1Value[sc[best]][mcode] * sval;
            else
                out[s * SG + best] *= tr.top1Mult[mcode];
        }
    }
}

/**
 * Groups [g0, g1) of rows [row0, row0 + n_rows), row r at out + r *
 * stride, with the codec's group size dispatched once per call.
 */
template <GroupDecodeKind Kind>
void
decodeGroups(const CodecTraits &tr, const PackedM2xfpTensor &t,
             size_t row0, size_t n_rows, size_t g0, size_t g1,
             size_t stride, float *out)
{
    auto run = [&](auto gs) {
        constexpr unsigned GS = decltype(gs)::value;
        for (size_t r = 0; r < n_rows; ++r)
            for (size_t g = g0; g < g1; ++g)
                decodeGroup<Kind, GS>(tr, t, row0 + r, g,
                                      out + r * stride + (g - g0) * GS);
    };
    if (tr.info->groupSize == 16)
        run(std::integral_constant<unsigned, 16>{});
    else
        run(std::integral_constant<unsigned, 32>{});
}

/** The span decode of @p t's codec in the weight or activation role:
 *  one traits lookup and one kind and geometry dispatch per call. */
void
decodeSpan(const PackedM2xfpTensor &t, bool weight, size_t row0,
           size_t n_rows, size_t g0, size_t g1, size_t stride,
           float *out)
{
    const CodecTraits &tr = CodecTraits::get(t.codec());
    m2x_assert(tr.info->groupSize == 16 || tr.info->groupSize == 32,
               "no generic decode for group size %u",
               tr.info->groupSize);
    switch (weight ? GroupDecodeKind::SubgroupMult : tr.actKind) {
    case GroupDecodeKind::Top1Replace:
        decodeGroups<GroupDecodeKind::Top1Replace>(tr, t, row0, n_rows,
                                                   g0, g1, stride, out);
        break;
    case GroupDecodeKind::Top1Multiply:
        decodeGroups<GroupDecodeKind::Top1Multiply>(
            tr, t, row0, n_rows, g0, g1, stride, out);
        break;
    case GroupDecodeKind::SubgroupMult:
        decodeGroups<GroupDecodeKind::SubgroupMult>(
            tr, t, row0, n_rows, g0, g1, stride, out);
        break;
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
    decodeSpan(t, false, row, 1, group, group + 1, 0, out);
}

void
codecDecodeWeightGroup(const PackedM2xfpTensor &t, size_t row,
                       size_t group, float *out)
{
    decodeSpan(t, true, row, 1, group, group + 1, 0, out);
}

void
codecDecodeRows(const PackedM2xfpTensor &t, size_t row0, size_t n_rows,
                size_t stride, float *out)
{
    decodeSpan(t, false, row0, n_rows, 0, t.groupsPerRow(), stride, out);
}

void
codecDecodeWeightRows(const PackedM2xfpTensor &t, size_t row0,
                      size_t n_rows, size_t stride, float *out)
{
    decodeSpan(t, true, row0, n_rows, 0, t.groupsPerRow(), stride, out);
}

void
codecDecodeActivationRow(const PackedM2xfpTensor &t, size_t row,
                         float *out)
{
    codecDecodeRows(t, row, 1, 0, out);
}

void
codecDecodeWeightRow(const PackedM2xfpTensor &t, size_t row,
                     float *out)
{
    codecDecodeWeightRows(t, row, 1, 0, out);
}

} // namespace runtime
} // namespace m2x

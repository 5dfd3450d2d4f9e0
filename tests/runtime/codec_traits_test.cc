/**
 * @file
 * Property tests for the codec-traits seam: for every registered
 * PackedCodec the stream-geometry invariants must hold, the decode
 * LUTs must reproduce the functional codecs' math entry-for-entry,
 * and the generic (traits-driven) group/row decoders must be
 * bit-identical to the functional unpackers over the full 256-value
 * element-byte space — the scalar-oracle property the GEMM and
 * attend drivers rely on when they dispatch a stream to these
 * kernels — and the per-ISA kernels the dispatch rule picks instead
 * must decode every stream exactly like them.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "core/elem_em.hh"
#include "core/m2xfp.hh"
#include "core/m2xfp_packed.hh"
#include "core/packed_codec.hh"
#include "formats/e8m0.hh"
#include "formats/minifloat.hh"
#include "runtime/codec_traits.hh"
#include "runtime/packed_gemm_kernels.hh"
#include "runtime/simd.hh"
#include "runtime_test_util.hh"

namespace m2x {
namespace runtime {
namespace {

using test::oneGroupTensor;
using test::randomMatrix;

std::string
codecTrace(PackedCodec c)
{
    return std::string("codec=") + packedCodecName(c);
}

TEST(CodecInfo, GeometryInvariantsHoldForEveryCodec)
{
    for (PackedCodec c : allPackedCodecs()) {
        SCOPED_TRACE(codecTrace(c));
        const PackedCodecInfo &info = packedCodecInfo(c);
        // Element nibbles pack two per byte.
        EXPECT_EQ(info.bytesPerGroupElems, info.groupSize / 2);
        EXPECT_EQ(info.groupSize % 2, 0u);
        // The metadata byte holds exactly four 2-bit granules.
        EXPECT_EQ(info.groupSize % info.subgroupSize, 0u);
        EXPECT_EQ(info.groupSize / info.subgroupSize, 4u);
        // bits/element = 4 (FP4 nibble) + one scale byte + one
        // metadata byte amortized over the group.
        double bits = 4.0 + 16.0 / info.groupSize;
        EXPECT_DOUBLE_EQ(info.bitsPerElement, bits);
        // Group byte stride of all three streams together.
        EXPECT_EQ(info.bytesPerGroupElems + 2,
                  static_cast<unsigned>(info.groupSize *
                                        info.bitsPerElement / 8.0));
    }
}

TEST(CodecInfo, NamesRoundTripThroughTheParser)
{
    for (PackedCodec c : allPackedCodecs()) {
        SCOPED_TRACE(codecTrace(c));
        PackedCodec parsed;
        ASSERT_TRUE(parsePackedCodec(packedCodecName(c), parsed));
        EXPECT_EQ(parsed, c);
    }
    PackedCodec out;
    EXPECT_FALSE(parsePackedCodec(nullptr, out));
    EXPECT_FALSE(parsePackedCodec("", out));
    EXPECT_FALSE(parsePackedCodec("fp8", out));
}

TEST(CodecInfo, EnvResolutionFallsBackLoudly)
{
    EXPECT_EQ(codec_detail::resolvePackedCodec(nullptr),
              PackedCodec::ElemEm);
    EXPECT_EQ(codec_detail::resolvePackedCodec(""),
              PackedCodec::ElemEm);
    EXPECT_EQ(codec_detail::resolvePackedCodec("sg_em"),
              PackedCodec::SgEm);
    EXPECT_EQ(codec_detail::resolvePackedCodec("m2_nvfp4"),
              PackedCodec::M2Nvfp4);
    testing::internal::CaptureStderr();
    EXPECT_EQ(codec_detail::resolvePackedCodec("bogus"),
              PackedCodec::ElemEm);
    std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("M2X_FORMAT"), std::string::npos)
        << "unknown format must warn, got: " << err;
}

TEST(CodecTraits, TensorGeometryFollowsTheCodec)
{
    for (PackedCodec c : allPackedCodecs()) {
        SCOPED_TRACE(codecTrace(c));
        const PackedCodecInfo &info = packedCodecInfo(c);
        // 3 groups for g32 at 65 cols, 5 for g16: the tensor's group
        // count and stream sizes must follow the codec, not the
        // legacy Elem-EM constants.
        Matrix m = randomMatrix(2, 65, 5, 4.0);
        PackedM2xfpTensor t =
            PackedM2xfpTensor::packActivationsCodec(m, c);
        EXPECT_EQ(&t.codecInfo(), &info);
        size_t gpr = (65 + info.groupSize - 1) / info.groupSize;
        EXPECT_EQ(t.groupsPerRow(), gpr);
        EXPECT_EQ(t.elementStream().size(),
                  2 * gpr * info.bytesPerGroupElems);
        EXPECT_EQ(t.scaleStream().size(), 2 * gpr);
        EXPECT_EQ(t.metadataStream().size(), 2 * gpr);
    }
}

TEST(CodecTraits, Fp4TablesMatchMinifloatOverFullByteSpace)
{
    const Minifloat &fp4 = Minifloat::fp4e2m1();
    for (PackedCodec c : allPackedCodecs()) {
        SCOPED_TRACE(codecTrace(c));
        const CodecTraits &t = CodecTraits::get(c);
        EXPECT_EQ(t.codec, c);
        EXPECT_EQ(t.info, &packedCodecInfo(c));
        for (uint32_t code = 0; code < 16; ++code)
            EXPECT_EQ(t.fp4Value[code], fp4.decode(code))
                << "code " << code;
        for (uint32_t b = 0; b < 256; ++b) {
            EXPECT_EQ(t.fp4Pair[b].lo, t.fp4Value[b & 0xf])
                << "byte " << b;
            EXPECT_EQ(t.fp4Pair[b].hi, t.fp4Value[b >> 4])
                << "byte " << b;
        }
    }
}

TEST(CodecTraits, ScaleTableMatchesTheCodecsScaleRule)
{
    const Minifloat &fp8 = Minifloat::fp8e4m3();
    for (PackedCodec c : allPackedCodecs()) {
        SCOPED_TRACE(codecTrace(c));
        const CodecTraits &t = CodecTraits::get(c);
        if (packedCodecInfo(c).scaleIsFp8) {
            for (uint32_t code = 0; code < 256; ++code) {
                float want = fp8.decode(code);
                if (std::isnan(want))
                    EXPECT_TRUE(std::isnan(t.scaleValue[code]))
                        << "code " << code;
                else
                    EXPECT_EQ(t.scaleValue[code], want)
                        << "code " << code;
            }
        } else {
            for (uint32_t code = 0; code < 255; ++code)
                EXPECT_EQ(
                    t.scaleValue[code],
                    ScaleE8m0::fromCode(static_cast<uint8_t>(code))
                        .value())
                    << "code " << code;
            EXPECT_TRUE(std::isnan(t.scaleValue[255]));
        }
    }
}

TEST(CodecTraits, MetadataTablesMatchTheFunctionalRules)
{
    const Minifloat &fp6 = Minifloat::fp6e2m3();
    const SgEmQuantizer sq = makeM2xfpWeightQuantizer();
    const ScaleE8m0 one = ScaleE8m0::fromExponent(0);
    for (PackedCodec c : allPackedCodecs()) {
        SCOPED_TRACE(codecTrace(c));
        const CodecTraits &t = CodecTraits::get(c);
        // Weight role everywhere, Sg-EM activations: the Sg-EM
        // quantizer's subgroup scale at a unit shared scale, 1 + m/4.
        for (uint8_t m = 0; m < 4; ++m) {
            EXPECT_EQ(t.subMult[m], sq.subgroupScale(one, m)) << int(m);
            EXPECT_EQ(t.subMult[m], 1.0f + m / 4.0f) << int(m);
        }
        // Elem-EM-style top-1 FP6 replacement (Elem-EM, M2-NVFP4).
        for (uint32_t code = 0; code < 16; ++code) {
            for (uint8_t m = 0; m < 4; ++m) {
                uint32_t mag6 =
                    ElemEmQuantizer::decodeFp6Mag(code & 0x7u, m);
                float mag = fp6.decode(mag6 & 0x1fu);
                float want = (code >> 3) ? -mag : mag;
                EXPECT_EQ(t.top1Value[code][m], want)
                    << "code " << code << " meta " << int(m);
            }
        }
        // Elem-EE top-1 exponent offset: 2^(m - 2).
        for (uint8_t m = 0; m < 4; ++m)
            EXPECT_EQ(t.top1Mult[m], std::exp2f(m - 2.0f)) << int(m);
    }
}

TEST(CodecTraits, ActKindMatchesTheTaxonomy)
{
    EXPECT_EQ(CodecTraits::get(PackedCodec::ElemEm).actKind,
              GroupDecodeKind::Top1Replace);
    EXPECT_EQ(CodecTraits::get(PackedCodec::ElemEe).actKind,
              GroupDecodeKind::Top1Multiply);
    EXPECT_EQ(CodecTraits::get(PackedCodec::SgEm).actKind,
              GroupDecodeKind::SubgroupMult);
    EXPECT_EQ(CodecTraits::get(PackedCodec::M2Nvfp4).actKind,
              GroupDecodeKind::Top1Replace);
}

/**
 * Per-codec scale codes that are valid for its scale rule (finite,
 * both clamp ends, a mid value) — the packers never emit NaN scales.
 */
std::vector<uint8_t>
validScaleCodes(PackedCodec c)
{
    if (packedCodecInfo(c).scaleIsFp8)
        return {0x00, 0x08, 0x30, 0x3c, 0x45, 0x7e, 0xb8};
    return {0, 64, 100, 127, 130, 200, 254};
}

/**
 * The full-byte-space round trip: every 256 element-byte value,
 * crossed with representative scale and metadata bytes, must decode
 * bit-identically through the traits kernels and the functional
 * quantizer path in both roles.
 */
TEST(CodecTraits, GroupDecodeMatchesFunctionalOverFullByteSpace)
{
    for (PackedCodec c : allPackedCodecs()) {
        SCOPED_TRACE(codecTrace(c));
        size_t gs = packedCodecInfo(c).groupSize;
        std::vector<float> buf(gs);
        for (unsigned b = 0; b < 256; ++b) {
            for (uint8_t scale : validScaleCodes(c)) {
                for (uint8_t meta : {0x00, 0x1b, 0xe4, 0xff}) {
                    PackedM2xfpTensor t = oneGroupTensor(
                        static_cast<uint8_t>(b), scale, meta, c);
                    Matrix wantA = t.unpackActivationsCodec();
                    codecDecodeActivationGroup(t, 0, 0, buf.data());
                    for (size_t i = 0; i < gs; ++i)
                        ASSERT_EQ(buf[i], wantA(0, i))
                            << "act byte=" << b
                            << " scale=" << int(scale)
                            << " meta=" << int(meta) << " i=" << i;
                    Matrix wantW = t.unpackWeightsCodec();
                    codecDecodeWeightGroup(t, 0, 0, buf.data());
                    for (size_t i = 0; i < gs; ++i)
                        ASSERT_EQ(buf[i], wantW(0, i))
                            << "wt byte=" << b
                            << " scale=" << int(scale)
                            << " meta=" << int(meta) << " i=" << i;
                }
            }
        }
    }
}

TEST(CodecTraits, RowDecodeMatchesFunctionalWithRaggedTail)
{
    for (PackedCodec c : allPackedCodecs()) {
        SCOPED_TRACE(codecTrace(c));
        size_t gs = packedCodecInfo(c).groupSize;
        // Tail groups that split a subgroup for both geometries.
        for (size_t cols : {size_t{3 * gs}, size_t{2 * gs + 5},
                            size_t{gs - 3}}) {
            SCOPED_TRACE("cols=" + std::to_string(cols));
            Matrix m = randomMatrix(4, cols, 0xC0DE + cols, 4.0);
            PackedM2xfpTensor ta =
                PackedM2xfpTensor::packActivationsCodec(m, c);
            PackedM2xfpTensor tw =
                PackedM2xfpTensor::packWeightsCodec(m, c);
            Matrix ra = ta.unpackActivationsCodec();
            Matrix rw = tw.unpackWeightsCodec();
            std::vector<float> buf(ta.groupsPerRow() * gs);
            for (size_t r = 0; r < m.rows(); ++r) {
                codecDecodeActivationRow(ta, r, buf.data());
                for (size_t i = 0; i < cols; ++i)
                    ASSERT_EQ(buf[i], ra(r, i)) << r << "," << i;
                // Padding must decode to exactly +0.0 so GEMM pads
                // never leak into a dot product.
                for (size_t i = cols; i < buf.size(); ++i)
                    ASSERT_EQ(buf[i], 0.0f) << r << "," << i;
                codecDecodeWeightRow(tw, r, buf.data());
                for (size_t i = 0; i < cols; ++i)
                    ASSERT_EQ(buf[i], rw(r, i)) << r << "," << i;
                for (size_t i = cols; i < buf.size(); ++i)
                    ASSERT_EQ(buf[i], 0.0f) << r << "," << i;
            }
            // The attend-shaped multi-row decoder: same values at an
            // arbitrary stride.
            size_t stride = ta.groupsPerRow() * gs + 7;
            std::vector<float> rows(m.rows() * stride, -1.0f);
            codecDecodeRows(ta, 0, m.rows(), stride, rows.data());
            for (size_t r = 0; r < m.rows(); ++r)
                for (size_t i = 0; i < cols; ++i)
                    ASSERT_EQ(rows[r * stride + i], ra(r, i))
                        << r << "," << i;
        }
    }
}

TEST(CodecTraits, E8m0CodecsShareOneTableSet)
{
    // The vector tiers stage one codec's tables (ElemEm's) for every
    // stream decodeFamily routes to them, whatever its codec — exact
    // only while every such codec builds the very same tables.
    const CodecTraits &ref = CodecTraits::get(PackedCodec::ElemEm);
    for (PackedCodec c : allPackedCodecs()) {
        const CodecTraits &tr = CodecTraits::get(c);
        if (decodeFamily(tr.actKind, *tr.info) == DecodeFamily::Generic &&
            decodeFamily(GroupDecodeKind::SubgroupMult, *tr.info) ==
                DecodeFamily::Generic)
            continue;
        SCOPED_TRACE(codecTrace(c));
        EXPECT_EQ(std::memcmp(tr.fp4Value, ref.fp4Value,
                              sizeof(ref.fp4Value)), 0);
        EXPECT_EQ(std::memcmp(tr.scaleValue, ref.scaleValue,
                              sizeof(ref.scaleValue)), 0);
        EXPECT_EQ(std::memcmp(tr.subMult, ref.subMult,
                              sizeof(ref.subMult)), 0);
        EXPECT_EQ(std::memcmp(tr.top1Value, ref.top1Value,
                              sizeof(ref.top1Value)), 0);
    }
}

TEST(CodecTraits, DecodeFamilyRuleKeysOnKindAndGeometry)
{
    auto family = [](PackedCodec c, bool weight) {
        const CodecTraits &tr = CodecTraits::get(c);
        return decodeFamily(
            weight ? GroupDecodeKind::SubgroupMult : tr.actKind,
            *tr.info);
    };
    EXPECT_EQ(family(PackedCodec::ElemEm, false), DecodeFamily::ElemEm);
    EXPECT_EQ(family(PackedCodec::ElemEe, false), DecodeFamily::Generic);
    EXPECT_EQ(family(PackedCodec::SgEm, false), DecodeFamily::SgEm);
    EXPECT_EQ(family(PackedCodec::M2Nvfp4, false),
              DecodeFamily::Generic);
    for (PackedCodec c : {PackedCodec::ElemEm, PackedCodec::ElemEe,
                          PackedCodec::SgEm})
        EXPECT_EQ(family(c, true), DecodeFamily::SgEm) << codecTrace(c);
    EXPECT_EQ(family(PackedCodec::M2Nvfp4, true), DecodeFamily::Generic);
}

/**
 * The kernel the decode selector must hand each (codec, role, tier):
 * the tier's Elem-EM or Sg-EM rows kernel for the E8M0 g32/sg8
 * streams whose metadata replaces the top-1 value or multiplies the
 * subgroup scale (on the scalar tier those are the generic kernels),
 * else the generic kernel of the role.
 */
detail::DecodeRowsFn
expectedRowsKernel(PackedCodec c, bool weight, SimdIsa isa)
{
    bool sg = weight || c == PackedCodec::SgEm;
    if (c == PackedCodec::M2Nvfp4 || (!sg && c == PackedCodec::ElemEe))
        return weight ? &codecDecodeWeightRows : &codecDecodeRows;
    switch (isa) {
#ifdef M2X_HAVE_AVX2
    case SimdIsa::Avx2:
        return sg ? &detail::decodeWeightRowsAvx2
                  : &detail::decodeActivationRowsAvx2;
#endif
#ifdef M2X_HAVE_AVX512
    case SimdIsa::Avx512:
        return sg ? &detail::decodeWeightRowsAvx512
                  : &detail::decodeActivationRowsAvx512;
#endif
    default:
        break;
    }
    return sg ? &codecDecodeWeightRows : &codecDecodeRows;
}

TEST(CodecTraits, DispatchedRowDecodersMatchTheGenericKernels)
{
    // The one decode selector (detail::rowsDecoder) serves the GEMM's
    // A side, one row per call, and the KV attend, one page per call.
    // Whatever kernel it picks must decode every stream bit for bit
    // like the generic traits kernel of that role: every element byte
    // at every position, crossed with valid scale codes and metadata
    // bytes, in rows of several groups — in both call forms, and in
    // the page form without touching the gap between a padded row and
    // the next row's stride.
    for (PackedCodec c : allPackedCodecs()) {
        SCOPED_TRACE(codecTrace(c));
        const CodecTraits &tr = CodecTraits::get(c);
        const PackedCodecInfo &info = *tr.info;
        const size_t bpg = info.bytesPerGroupElems;
        std::vector<uint8_t> elems, scales, meta;
        for (unsigned b = 0; b < 256; ++b)
            for (uint8_t sc : validScaleCodes(c))
                for (uint8_t mb : {0x00, 0x1b, 0xe4, 0xff}) {
                    for (unsigned j = 0; j < bpg; ++j)
                        elems.push_back(static_cast<uint8_t>(b + 17 * j));
                    scales.push_back(sc);
                    meta.push_back(mb);
                }
        // Rows of three groups (the last one ragged): repeat the
        // first groups to fill the last row.
        const size_t gpr = 3;
        for (size_t gi = 0; scales.size() % gpr != 0; ++gi) {
            for (size_t j = 0; j < bpg; ++j) {
                uint8_t e = elems[gi * bpg + j];
                elems.push_back(e);
            }
            uint8_t sc = scales[gi], mb = meta[gi];
            scales.push_back(sc);
            meta.push_back(mb);
        }
        const size_t rows = scales.size() / gpr;
        PackedM2xfpTensor t = PackedM2xfpTensor::fromRawStreams(
            rows, gpr * info.groupSize - 3, std::move(elems),
            std::move(scales), std::move(meta), c);
        const size_t padded = gpr * info.groupSize;
        // The page: every row but the first, 5 floats of gap per row.
        const size_t row0 = 1, n_rows = rows - 1, stride = padded + 5;
        std::vector<float> want(rows * padded), one(padded);
        std::vector<float> page((n_rows + 1) * stride);
        for (SimdIsa isa : supportedSimdIsas()) {
            SCOPED_TRACE(std::string("isa=") + simdIsaName(isa));
            for (bool weight : {false, true}) {
                SCOPED_TRACE(weight ? "weight role" : "activation role");
                GroupDecodeKind kind =
                    weight ? GroupDecodeKind::SubgroupMult : tr.actKind;
                detail::DecodeRowsFn dispatched =
                    detail::rowsDecoder(kind, info, isa);
                EXPECT_EQ(dispatched, expectedRowsKernel(c, weight, isa));
                (weight ? &codecDecodeWeightRows : &codecDecodeRows)(
                    t, 0, rows, padded, want.data());
                for (size_t r = 0; r < rows; ++r) {
                    dispatched(t, r, 1, padded, one.data());
                    ASSERT_EQ(std::memcmp(one.data(),
                                          want.data() + r * padded,
                                          padded * sizeof(float)),
                              0)
                        << "row " << r;
                }
                std::memset(page.data(), 0xab,
                            page.size() * sizeof(float));
                dispatched(t, row0, n_rows, stride, page.data());
                for (size_t r = 0; r < n_rows; ++r)
                    ASSERT_EQ(std::memcmp(page.data() + r * stride,
                                          want.data() +
                                              (row0 + r) * padded,
                                          padded * sizeof(float)),
                              0)
                        << "page row " << r;
                for (size_t i = 0; i < page.size(); ++i) {
                    if (i % stride < padded && i < n_rows * stride)
                        continue;
                    ASSERT_EQ(std::bit_cast<uint32_t>(page[i]),
                              0xababababu)
                        << "gap float " << i << " was written";
                }
            }
        }
    }
}

} // anonymous namespace
} // namespace runtime
} // namespace m2x

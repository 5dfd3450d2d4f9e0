/**
 * @file
 * Scalar tier of the fast-path activation encoder — the portable,
 * allocation-free oracle reproducing ElemEmQuantizer::encodeGroup
 * byte for byte. Every tier (including this one) is verified against
 * the functional codec by tests/runtime/packed_quantize_test.cc; the
 * scalar tier additionally serves as the reference the AVX2 tier is
 * swept against on machines where both run.
 */

#include <algorithm>
#include <cstring>

#include "runtime/packed_quantize.hh"

namespace m2x {
namespace runtime {
namespace detail {

namespace {

constexpr size_t groupSize = PackedM2xfpTensor::groupSize;
constexpr size_t subgroupSize = PackedM2xfpTensor::subgroupSize;
constexpr size_t nSubgroups = groupSize / subgroupSize;

} // anonymous namespace

void
encodeActivationGroupScalar(const float *in, ScaleRule rule,
                            uint8_t *elems, uint8_t *scale,
                            uint8_t *meta)
{
    // Step 1: shared scale from the block max. std::max ignores NaN
    // elements (the comparison is false), matching absMax().
    float amax = 0.0f;
    for (size_t i = 0; i < groupSize; ++i)
        amax = std::max(amax, std::fabs(in[i]));
    ScaleE8m0 s =
        computeSharedScale(amax, Minifloat::fp4e2m1(), rule);
    *scale = s.code();
    float inv = s.inverse();

    // Step 2: FP4 codes for every element, packed two per byte.
    uint8_t codes[groupSize];
    for (size_t i = 0; i < groupSize; ++i)
        codes[i] = static_cast<uint8_t>(fp4CodeRne(in[i] * inv));
    for (size_t j = 0; j < groupSize / 2; ++j)
        elems[j] = static_cast<uint8_t>(codes[2 * j] |
                                        (codes[2 * j + 1] << 4));

    // Steps 3-7: per-subgroup top-1 (strict compare, ties to the
    // lowest index), FP6 re-round of the original value, 2-bit
    // clamped-bias metadata.
    uint8_t mb = 0;
    for (size_t sg = 0; sg < nSubgroups; ++sg) {
        const uint8_t *sc = codes + sg * subgroupSize;
        size_t best = 0;
        uint32_t best_mag = sc[0] & 0x7u;
        for (size_t i = 1; i < subgroupSize; ++i) {
            uint32_t m = sc[i] & 0x7u;
            if (m > best_mag) {
                best_mag = m;
                best = i;
            }
        }
        float a6 = std::fabs(in[sg * subgroupSize + best]) * inv;
        uint32_t mag6 = fp6MagRne(a6);
        mb = static_cast<uint8_t>(
            mb | ((ElemEmQuantizer::encodeMeta(mag6, best_mag) & 0x3u)
                  << (2 * sg)));
    }
    *meta = mb;
}

void
quantizeActivationRowScalar(const float *src, size_t cols,
                            ScaleRule rule, uint8_t *elems,
                            uint8_t *scales, uint8_t *meta)
{
    constexpr size_t bpg = PackedM2xfpTensor::bytesPerGroupElems;
    size_t g = 0;
    for (; (g + 1) * groupSize <= cols; ++g)
        encodeActivationGroupScalar(src + g * groupSize, rule,
                                    elems + g * bpg, scales + g,
                                    meta + g);
    if (g * groupSize < cols) {
        // Tail group: zero-pad to the full group, exactly like the
        // functional packer.
        float padded[groupSize] = {};
        std::memcpy(padded, src + g * groupSize,
                    (cols - g * groupSize) * sizeof(float));
        encodeActivationGroupScalar(padded, rule, elems + g * bpg,
                                    scales + g, meta + g);
    }
}

void
encodeSgEmGroupScalar(const float *in, ScaleRule rule, bool adaptive,
                      uint8_t *elems, uint8_t *scale, uint8_t *meta)
{
    // FP4 E2M1 magnitudes by 3-bit code.
    static constexpr float fp4Mag[8] = {0.0f, 0.5f, 1.0f, 1.5f,
                                        2.0f, 3.0f, 4.0f, 6.0f};
    const SgEmScaleTable &tab = SgEmScaleTable::get();

    float amax = 0.0f;
    for (size_t i = 0; i < groupSize; ++i)
        amax = std::max(amax, std::fabs(in[i]));
    unsigned codes[3];
    sgEmCandidateCodes(amax, rule, adaptive, codes);

    // Every candidate's subgroup error, summed in element order in
    // double exactly like SgEmQuantizer's per-subgroup pass. The
    // error is sign-symmetric (the FP4 value carries the element's
    // sign, and IEEE subtraction commutes with negation), so the
    // magnitudes suffice.
    double err[nSubgroups][sgEmCandidates];
    for (size_t sg = 0; sg < nSubgroups; ++sg) {
        for (unsigned c = 0; c < sgEmCandidates; ++c) {
            float inv = tab.inv[codes[c / 4]][c % 4];
            double sc = tab.scale[codes[c / 4]][c % 4];
            double e = 0.0;
            for (size_t i = 0; i < subgroupSize; ++i) {
                float a = std::fabs(in[sg * subgroupSize + i]);
                double v = fp4Mag[fp4CodeRne(a * inv) & 0x7u] * sc;
                double d = v - a;
                e += d * d;
            }
            err[sg][c] = e;
        }
    }
    uint8_t mult[nSubgroups];
    unsigned b = sgEmSelect(err, adaptive, mult);
    *scale = static_cast<uint8_t>(codes[b]);
    *meta = sgEmMetaByte(mult);

    // The winner's codes, re-encoded from the signed elements.
    for (size_t j = 0; j < groupSize / 2; ++j) {
        float inv = tab.inv[codes[b]][mult[2 * j / subgroupSize]];
        elems[j] = static_cast<uint8_t>(
            fp4CodeRne(in[2 * j] * inv) |
            (fp4CodeRne(in[2 * j + 1] * inv) << 4));
    }
}

} // namespace detail
} // namespace runtime
} // namespace m2x

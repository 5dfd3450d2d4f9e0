/**
 * @file
 * AVX2 tier of the fast-path activation encoder and of the Sg-EM
 * group encoder.
 *
 * Unlike the GEMM tiers, this kernel is held to the *byte-exact*
 * contract: encoding is elementwise (no reassociated accumulation),
 * so every vector step below reproduces the scalar oracle exactly.
 *
 *   absmax   — abs-mask + lanewise max; _mm256_max_ps(v, acc)
 *              returns acc when v is NaN, matching std::max's
 *              NaN-ignoring fold in absMax().
 *   FP4 RNE  — the threshold ladder of fp4CodeRne() as seven
 *              ordered-quiet compares (GT/GE picked per tie so ties
 *              land on the even code); mask subtraction accumulates
 *              the magnitude, the sign bit is shifted down from the
 *              scaled float, NaN lanes blend to code 7.
 *   top-1    — per subgroup (one 8-lane vector) the key
 *              (mag << 3) | (7 - lane) makes a single horizontal
 *              max yield the strict-greater, ties-to-lowest-index
 *              argmax the decoder recomputes.
 *   pack     — two packus stages + a cross-lane permute restore
 *              element order, then nibble merge in 16-bit lanes.
 *
 * The per-group shared scale (any ScaleRule) and the 4-per-group FP6
 * re-rounds stay scalar — they are O(groups), not O(elements).
 *
 * The Sg-EM group encoder holds the 12 candidate scales of a group
 * in 8 + 4 float lanes and walks the 32 elements once, summing each
 * candidate's squared error in its own double lane (three 4-lane
 * vectors); only the winner's codes go through the ladder and pack.
 *
 * This translation unit is compiled with -mavx2 -mfma and must only
 * be entered through the runtime dispatch (simdIsaAvailable guards).
 */

#include <immintrin.h>

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

/**
 * FP4 codes of 8 scaled elements, one per 32-bit lane. Bit-identical
 * to fp4CodeRne() lane by lane.
 */
inline __m256i
fp4Codes8(__m256 x)
{
    const __m256 absmask =
        _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
    __m256 a = _mm256_and_ps(x, absmask);
    __m256i mag = _mm256_setzero_si256();
    auto step = [&](float thr, int op) {
        __m256 m = (op == _CMP_GT_OQ)
                       ? _mm256_cmp_ps(a, _mm256_set1_ps(thr),
                                       _CMP_GT_OQ)
                       : _mm256_cmp_ps(a, _mm256_set1_ps(thr),
                                       _CMP_GE_OQ);
        mag = _mm256_sub_epi32(mag, _mm256_castps_si256(m));
    };
    step(0.25f, _CMP_GT_OQ);
    step(0.75f, _CMP_GE_OQ);
    step(1.25f, _CMP_GT_OQ);
    step(1.75f, _CMP_GE_OQ);
    step(2.5f, _CMP_GT_OQ);
    step(3.5f, _CMP_GE_OQ);
    step(5.0f, _CMP_GT_OQ);
    __m256i sign = _mm256_and_si256(
        _mm256_srli_epi32(_mm256_castps_si256(x), 28),
        _mm256_set1_epi32(8));
    __m256i code = _mm256_or_si256(sign, mag);
    // NaN lanes (all ordered compares false, sign whatever the NaN
    // carries) must match the scalar convention: +max, code 7.
    __m256i nan =
        _mm256_castps_si256(_mm256_cmp_ps(x, x, _CMP_UNORD_Q));
    return _mm256_blendv_epi8(code, _mm256_set1_epi32(7), nan);
}

/**
 * Nibble pack of a group's 4x8 dword codes -> 32 ordered byte codes
 * -> 16 packed bytes (even element in the low nibble).
 */
inline void
packNibbles(const __m256i codes[nSubgroups], uint8_t *elems)
{
    __m256i p01 = _mm256_packus_epi32(codes[0], codes[1]);
    __m256i p23 = _mm256_packus_epi32(codes[2], codes[3]);
    __m256i p = _mm256_packus_epi16(p01, p23);
    // Dwords now hold [c0:0-3, c1:0-3, c2:0-3, c3:0-3, c0:4-7, ...];
    // restore element order.
    p = _mm256_permutevar8x32_epi32(
        p, _mm256_set_epi32(7, 3, 6, 2, 5, 1, 4, 0));
    __m256i even =
        _mm256_and_si256(p, _mm256_set1_epi16(0x00ff));
    __m256i odd = _mm256_srli_epi16(p, 8);
    __m256i byte16 =
        _mm256_or_si256(even, _mm256_slli_epi16(odd, 4));
    const __m256i take_even = _mm256_setr_epi8(
        0, 2, 4, 6, 8, 10, 12, 14, -1, -1, -1, -1, -1, -1, -1, -1,
        0, 2, 4, 6, 8, 10, 12, 14, -1, -1, -1, -1, -1, -1, -1, -1);
    __m256i packed = _mm256_shuffle_epi8(byte16, take_even);
    _mm_storel_epi64(reinterpret_cast<__m128i *>(elems),
                     _mm256_castsi256_si128(packed));
    _mm_storel_epi64(reinterpret_cast<__m128i *>(elems + 8),
                     _mm256_extracti128_si256(packed, 1));
}

/**
 * Load a group as four 8-lane vectors (vector i == subgroup i) and
 * return its block absmax. NaN lanes never enter the accumulator
 * (max_ps returns the second operand when the first is NaN), so the
 * fold matches absMax()'s std::max semantics.
 */
inline float
loadGroupAbsMax(const float *in, __m256 v[nSubgroups])
{
    const __m256 absmask =
        _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
    __m256 acc = _mm256_setzero_ps();
    for (size_t i = 0; i < nSubgroups; ++i) {
        v[i] = _mm256_loadu_ps(in + 8 * i);
        acc = _mm256_max_ps(_mm256_and_ps(v[i], absmask), acc);
    }
    __m128 m4 = _mm_max_ps(_mm256_castps256_ps128(acc),
                           _mm256_extractf128_ps(acc, 1));
    m4 = _mm_max_ps(m4, _mm_movehl_ps(m4, m4));
    m4 = _mm_max_ss(m4, _mm_movehdup_ps(m4));
    return _mm_cvtss_f32(m4);
}

/**
 * FP4 E2M1 value that fp4CodeRne() rounds each of 8 non-negative
 * lanes to — the AVX-512 tier's fp4Value16 on 8 lanes: add and
 * subtract c = max(2^e, 1) * 2^22, whose ulp is FP4's grid spacing
 * in y's binade 2^e, then saturate at 6 (which also maps the Inf/NaN
 * lanes to 6 — callers only use those in a NaN error sum).
 */
inline __m256
fp4Value8(__m256 y)
{
    __m256 binade = _mm256_and_ps(
        y, _mm256_castsi256_ps(_mm256_set1_epi32(0x7f800000)));
    __m256 c = _mm256_mul_ps(_mm256_max_ps(binade, _mm256_set1_ps(1.0f)),
                             _mm256_set1_ps(0x1p22f));
    return _mm256_min_ps(_mm256_sub_ps(_mm256_add_ps(y, c), c),
                         _mm256_set1_ps(6.0f));
}

} // anonymous namespace

void
encodeActivationGroupAvx2(const float *in, ScaleRule rule,
                          uint8_t *elems, uint8_t *scale,
                          uint8_t *meta)
{
    // Step 1: block absmax.
    __m256 v[nSubgroups];
    float amax = loadGroupAbsMax(in, v);

    ScaleE8m0 s =
        computeSharedScale(amax, Minifloat::fp4e2m1(), rule);
    *scale = s.code();
    float inv = s.inverse();
    __m256 vinv = _mm256_set1_ps(inv);

    // Step 2: FP4 codes, 8 per vector (vector i == subgroup i).
    __m256i codes[nSubgroups];
    for (size_t i = 0; i < nSubgroups; ++i)
        codes[i] = fp4Codes8(_mm256_mul_ps(v[i], vinv));

    // Steps 3-7: top-1 per subgroup via one horizontal max over
    // (mag << 3) | (7 - lane): larger magnitude wins, equal
    // magnitude prefers the lower lane — the decoder's exact rule.
    const __m256i revlane =
        _mm256_set_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    uint8_t mb = 0;
    for (size_t sg = 0; sg < nSubgroups; ++sg) {
        __m256i mag =
            _mm256_and_si256(codes[sg], _mm256_set1_epi32(7));
        __m256i key = _mm256_or_si256(_mm256_slli_epi32(mag, 3),
                                      revlane);
        __m128i k = _mm_max_epi32(_mm256_castsi256_si128(key),
                                  _mm256_extracti128_si256(key, 1));
        k = _mm_max_epi32(
            k, _mm_shuffle_epi32(k, _MM_SHUFFLE(1, 0, 3, 2)));
        k = _mm_max_epi32(
            k, _mm_shuffle_epi32(k, _MM_SHUFFLE(2, 3, 0, 1)));
        uint32_t best = static_cast<uint32_t>(_mm_cvtsi128_si32(k));
        size_t idx = 7u - (best & 0x7u);
        uint32_t mag4 = best >> 3;
        float a6 =
            std::fabs(in[sg * subgroupSize + idx]) * inv;
        uint32_t mag6 = fp6MagRne(a6);
        mb = static_cast<uint8_t>(
            mb | ((ElemEmQuantizer::encodeMeta(mag6, mag4) & 0x3u)
                  << (2 * sg)));
    }
    *meta = mb;

    packNibbles(codes, elems);
}

void
encodeSgEmGroupAvx2(const float *in, ScaleRule rule, bool adaptive,
                    uint8_t *elems, uint8_t *scale, uint8_t *meta)
{
    const SgEmScaleTable &tab = SgEmScaleTable::get();
    __m256 v[nSubgroups];
    unsigned codes[3];
    sgEmCandidateCodes(loadGroupAbsMax(in, v), rule, adaptive, codes);

    // Candidate c = 4 * (b + 1) + m in lane c: the b = -1, 0 inverse
    // scales in one 8-lane vector, b = +1 in the low half of a
    // second; the scales widened to double as three 4-lane vectors.
    __m128 inv_p1 = _mm_loadu_ps(tab.inv[codes[2]]);
    __m256 inv_lo = _mm256_set_m128(_mm_loadu_ps(tab.inv[codes[1]]),
                                    _mm_loadu_ps(tab.inv[codes[0]]));
    __m256 inv_hi = _mm256_set_m128(inv_p1, inv_p1);
    __m256d sc[3];
    for (unsigned b = 0; b < 3; ++b)
        sc[b] = _mm256_cvtps_pd(_mm_loadu_ps(tab.scale[codes[b]]));

    // One pass over the elements, each broadcast against all 12
    // candidates: every lane sums its squared errors in element
    // order in double, with an explicit multiply then add, exactly
    // like SgEmQuantizer's per-subgroup pass. The error is
    // sign-symmetric, so the pass runs on magnitudes.
    alignas(32) float mag[groupSize];
    alignas(32) double mag_d[groupSize];
    const __m256 absmask =
        _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
    for (size_t i = 0; i < nSubgroups; ++i)
        _mm256_store_ps(mag + 8 * i, _mm256_and_ps(v[i], absmask));
    for (size_t i = 0; i < groupSize; i += 4)
        _mm256_store_pd(mag_d + i, _mm256_cvtps_pd(_mm_load_ps(mag + i)));
    double err[nSubgroups][sgEmCandidates];
    for (size_t sg = 0; sg < nSubgroups; ++sg) {
        __m256d e[3] = {_mm256_setzero_pd(), _mm256_setzero_pd(),
                        _mm256_setzero_pd()};
        for (size_t i = 0; i < subgroupSize; ++i) {
            size_t el = sg * subgroupSize + i;
            __m256 av = _mm256_set1_ps(mag[el]);
            __m256 q_lo = fp4Value8(_mm256_mul_ps(av, inv_lo));
            __m256 q_hi = fp4Value8(_mm256_mul_ps(av, inv_hi));
            __m128 q[3] = {_mm256_castps256_ps128(q_lo),
                           _mm256_extractf128_ps(q_lo, 1),
                           _mm256_castps256_ps128(q_hi)};
            __m256d ad = _mm256_set1_pd(mag_d[el]);
            for (unsigned b = 0; b < 3; ++b) {
                __m256d d = _mm256_sub_pd(
                    _mm256_mul_pd(_mm256_cvtps_pd(q[b]), sc[b]), ad);
                e[b] = _mm256_add_pd(e[b], _mm256_mul_pd(d, d));
            }
        }
        for (unsigned b = 0; b < 3; ++b)
            _mm256_storeu_pd(err[sg] + 4 * b, e[b]);
    }
    uint8_t mult[nSubgroups];
    unsigned b = sgEmSelect(err, adaptive, mult);
    *scale = static_cast<uint8_t>(codes[b]);
    *meta = sgEmMetaByte(mult);

    // The winner's codes: the same FP4 ladder and pack as the
    // Elem-EM encoder, one subgroup inverse per vector.
    const float *row = tab.inv[codes[b]];
    __m256i out[nSubgroups];
    for (size_t sg = 0; sg < nSubgroups; ++sg)
        out[sg] = fp4Codes8(
            _mm256_mul_ps(v[sg], _mm256_set1_ps(row[mult[sg]])));
    packNibbles(out, elems);
}

void
quantizeActivationRowAvx2(const float *src, size_t cols,
                          ScaleRule rule, uint8_t *elems,
                          uint8_t *scales, uint8_t *meta)
{
    constexpr size_t bpg = PackedM2xfpTensor::bytesPerGroupElems;
    size_t g = 0;
    for (; (g + 1) * groupSize <= cols; ++g)
        encodeActivationGroupAvx2(src + g * groupSize, rule,
                                  elems + g * bpg, scales + g,
                                  meta + g);
    if (g * groupSize < cols) {
        alignas(32) float padded[groupSize] = {};
        std::memcpy(padded, src + g * groupSize,
                    (cols - g * groupSize) * sizeof(float));
        encodeActivationGroupAvx2(padded, rule, elems + g * bpg,
                                  scales + g, meta + g);
    }
}

} // namespace detail
} // namespace runtime
} // namespace m2x

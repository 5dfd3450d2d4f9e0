/**
 * @file
 * AVX-512 (F+BW) tier of the fast-path Sg-EM encoder (weight
 * packing, sg_em activations and KV appends). The tier's Elem-EM
 * activation encoder is the AVX2 one (quantizeKernels): a 16-lane
 * version was byte-identical but no faster, since the narrow stores
 * of the pack dominate.
 *
 * The Sg-EM group encoder puts the 12 candidate scales of a group
 * in the lanes of one vector and walks the 32 elements once: each
 * element is broadcast, scaled by all 12 inverses, rounded to its
 * FP4 value by magic-number addition, and its squared error added
 * to the lane's double sum (8 + 4 double lanes), with the same
 * operation order as the functional encoder, so the result is
 * byte-identical to it. Only the winner's codes go through the
 * FP4 RNE ladder — the fp4CodeRne() thresholds as seven
 * _mm512_cmp_ps_mask compares (GT/GE per tie so ties land on the
 * even code), NaN lanes mask-blended to code 7 — and the vpmovdb
 * (_mm512_cvtepi32_epi8) nibble pack.
 *
 * This translation unit is compiled with -mavx2 -mfma -mavx512f
 * -mavx512bw and must only be entered through the runtime dispatch
 * (simdIsaAvailable guards).
 */

#include <immintrin.h>

#include "runtime/packed_quantize.hh"

namespace m2x {
namespace runtime {
namespace detail {

namespace {

constexpr size_t groupSize = PackedM2xfpTensor::groupSize;
constexpr size_t subgroupSize = PackedM2xfpTensor::subgroupSize;
constexpr size_t nSubgroups = groupSize / subgroupSize;

/** |x| lanewise; float-domain and_ps is DQ, so mask in the integer
 *  domain (AVX512F). */
inline __m512
abs16(__m512 x)
{
    return _mm512_castsi512_ps(_mm512_and_epi32(
        _mm512_castps_si512(x), _mm512_set1_epi32(0x7fffffff)));
}

/**
 * FP4 codes of 16 scaled elements, one per 32-bit lane.
 * Bit-identical to fp4CodeRne() lane by lane.
 */
inline __m512i
fp4Codes16(__m512 x)
{
    __m512 a = abs16(x);
    const __m512i one = _mm512_set1_epi32(1);
    __m512i mag = _mm512_setzero_si512();
    auto step = [&](float thr, int op) {
        __mmask16 m = (op == _CMP_GT_OQ)
                          ? _mm512_cmp_ps_mask(
                                a, _mm512_set1_ps(thr), _CMP_GT_OQ)
                          : _mm512_cmp_ps_mask(
                                a, _mm512_set1_ps(thr), _CMP_GE_OQ);
        mag = _mm512_mask_add_epi32(mag, m, mag, one);
    };
    step(0.25f, _CMP_GT_OQ);
    step(0.75f, _CMP_GE_OQ);
    step(1.25f, _CMP_GT_OQ);
    step(1.75f, _CMP_GE_OQ);
    step(2.5f, _CMP_GT_OQ);
    step(3.5f, _CMP_GE_OQ);
    step(5.0f, _CMP_GT_OQ);
    __m512i sign = _mm512_and_si512(
        _mm512_srli_epi32(_mm512_castps_si512(x), 28),
        _mm512_set1_epi32(8));
    __m512i code = _mm512_or_si512(sign, mag);
    // NaN lanes must match the scalar convention: +max, code 7.
    __mmask16 nan = _mm512_cmp_ps_mask(x, x, _CMP_UNORD_Q);
    return _mm512_mask_mov_epi32(code, nan, _mm512_set1_epi32(7));
}

/**
 * Nibble pack of a group's 32 dword codes into its 16 element
 * bytes: vpmovdb gives the 32 byte codes already in element order,
 * then even|odd<<4 merges each byte pair.
 */
inline void
packNibbles(__m512i codes_lo, __m512i codes_hi, uint8_t *elems)
{
    __m256i byte32 = _mm256_set_m128i(
        _mm512_cvtepi32_epi8(codes_hi),
        _mm512_cvtepi32_epi8(codes_lo));
    __m256i even =
        _mm256_and_si256(byte32, _mm256_set1_epi16(0x00ff));
    __m256i odd = _mm256_srli_epi16(byte32, 8);
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
 * Block absmax of a group's two 16-lane halves. NaN lanes never
 * enter the accumulator (max_ps returns the second operand when the
 * first is NaN), so the fold — and the final reduce — match
 * absMax()'s std::max semantics.
 */
inline float
groupAbsMax(__m512 v_lo, __m512 v_hi)
{
    __m512 acc = _mm512_max_ps(abs16(v_lo), _mm512_setzero_ps());
    acc = _mm512_max_ps(abs16(v_hi), acc);
    return _mm512_reduce_max_ps(acc);
}

/**
 * FP4 E2M1 value that fp4CodeRne() rounds each of 16 non-negative
 * lanes to (RNE, ties to the even code, saturating at 6). FP4 keeps
 * one mantissa bit from 1 up and a 0.5 step below, so its grid
 * spacing in y's binade 2^e is max(2^e, 1) / 2. Adding and then
 * subtracting c = max(2^e, 1) * 2^22 — a float whose ulp is exactly
 * that spacing — rounds y with the FPU's own round-to-nearest-even,
 * a tie landing on the even multiple, i.e. the even code; the sum
 * stays below 2c, so the subtraction is exact. min(., 6) saturates,
 * and also maps the Inf/NaN lanes (whose difference is NaN, and
 * min_ps returns its second operand then) to 6 — callers only use
 * NaN lanes in a NaN error sum.
 */
inline __m512
fp4Value16(__m512 y)
{
    __m512 binade = _mm512_castsi512_ps(_mm512_and_epi32(
        _mm512_castps_si512(y), _mm512_set1_epi32(0x7f800000)));
    __m512 c = _mm512_mul_ps(_mm512_max_ps(binade, _mm512_set1_ps(1.0f)),
                             _mm512_set1_ps(0x1p22f));
    return _mm512_min_ps(_mm512_sub_ps(_mm512_add_ps(y, c), c),
                         _mm512_set1_ps(6.0f));
}

} // anonymous namespace

void
encodeSgEmGroupAvx512(const float *in, ScaleRule rule, bool adaptive,
                      uint8_t *elems, uint8_t *scale, uint8_t *meta)
{
    const SgEmScaleTable &tab = SgEmScaleTable::get();
    __m512 v_lo = _mm512_loadu_ps(in);
    __m512 v_hi = _mm512_loadu_ps(in + 16);
    unsigned codes[3];
    sgEmCandidateCodes(groupAbsMax(v_lo, v_hi), rule, adaptive, codes);

    // Candidate c = 4 * (b + 1) + m in lane c: the 12 inverse scales
    // as floats (lanes 12-15 unused), the scales widened to double as
    // an 8-lane (b = -1, 0) and a 4-lane (b = +1) vector.
    __m512 inv = _mm512_insertf32x4(
        _mm512_insertf32x4(
            _mm512_castps128_ps512(_mm_loadu_ps(tab.inv[codes[0]])),
            _mm_loadu_ps(tab.inv[codes[1]]), 1),
        _mm_loadu_ps(tab.inv[codes[2]]), 2);
    __m512d scale_lo = _mm512_cvtps_pd(
        _mm256_set_m128(_mm_loadu_ps(tab.scale[codes[1]]),
                        _mm_loadu_ps(tab.scale[codes[0]])));
    __m256d scale_hi = _mm256_cvtps_pd(_mm_loadu_ps(tab.scale[codes[2]]));

    // One pass over the elements, each broadcast against all 12
    // candidates: every lane sums its squared errors in element
    // order in double, with an explicit multiply then add, exactly
    // like SgEmQuantizer's per-subgroup pass. The error is
    // sign-symmetric, so the pass runs on magnitudes.
    alignas(64) float mag[groupSize];
    alignas(64) double mag_d[groupSize];
    _mm512_store_ps(mag, abs16(v_lo));
    _mm512_store_ps(mag + 16, abs16(v_hi));
    for (size_t i = 0; i < groupSize; i += 8)
        _mm512_store_pd(mag_d + i, _mm512_cvtps_pd(_mm256_load_ps(mag + i)));
    double err[nSubgroups][sgEmCandidates];
    for (size_t sg = 0; sg < nSubgroups; ++sg) {
        __m512d e_lo = _mm512_setzero_pd();
        __m256d e_hi = _mm256_setzero_pd();
        for (size_t i = 0; i < subgroupSize; ++i) {
            size_t el = sg * subgroupSize + i;
            __m512 q =
                fp4Value16(_mm512_mul_ps(_mm512_set1_ps(mag[el]), inv));
            __m512d ad = _mm512_set1_pd(mag_d[el]);
            __m512d d_lo = _mm512_sub_pd(
                _mm512_mul_pd(_mm512_cvtps_pd(_mm512_castps512_ps256(q)),
                              scale_lo),
                ad);
            __m256d d_hi = _mm256_sub_pd(
                _mm256_mul_pd(_mm256_cvtps_pd(_mm512_extractf32x4_ps(q, 2)),
                              scale_hi),
                _mm512_castpd512_pd256(ad));
            e_lo = _mm512_add_pd(e_lo, _mm512_mul_pd(d_lo, d_lo));
            e_hi = _mm256_add_pd(e_hi, _mm256_mul_pd(d_hi, d_hi));
        }
        _mm512_storeu_pd(err[sg], e_lo);
        _mm256_storeu_pd(err[sg] + 8, e_hi);
    }
    uint8_t mult[nSubgroups];
    unsigned b = sgEmSelect(err, adaptive, mult);
    *scale = static_cast<uint8_t>(codes[b]);
    *meta = sgEmMetaByte(mult);

    // The winner's codes: each subgroup's inverse scale fanned out
    // to its 8 lanes, then the FP4 ladder and the pack.
    const float *row = tab.inv[codes[b]];
    __m512 inv_lo = _mm512_mask_blend_ps(0xff00,
                                         _mm512_set1_ps(row[mult[0]]),
                                         _mm512_set1_ps(row[mult[1]]));
    __m512 inv_hi = _mm512_mask_blend_ps(0xff00,
                                         _mm512_set1_ps(row[mult[2]]),
                                         _mm512_set1_ps(row[mult[3]]));
    packNibbles(fp4Codes16(_mm512_mul_ps(v_lo, inv_lo)),
                fp4Codes16(_mm512_mul_ps(v_hi, inv_hi)), elems);
}

} // namespace detail
} // namespace runtime
} // namespace m2x

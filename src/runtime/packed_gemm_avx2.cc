/**
 * @file
 * AVX2+FMA tier of the packed GEMM: vectorized LUT decode of the
 * M2XFP byte streams and an FMA microkernel over double accumulator
 * vectors.
 *
 * Decode: both nibbles of each packed element byte are split with
 * byte ops, widened to 32-bit lanes, and the 16-entry FP4 E2M1 table
 * collapses to an 8-entry magnitude permute (vpermps) plus a sign
 * XOR — exactly the scalar tables' values, so the decoded floats are
 * bit-identical to runtime/decode_lut (asserted by
 * tests/runtime/simd_test.cc over all 256 byte values per stream).
 * The Elem-EM top-1 fix-up touches one element per subgroup and
 * stays scalar.
 *
 * Accumulate: the MR=4 x NR=8 register-tile microkernel broadcasts
 * one A double per row against two 4-wide W sliver vectors, 8
 * independent double FMA chains — deep enough to cover the FMA
 * latency at two issues per cycle. FMA contraction rounds
 * differently from the scalar oracle's separate multiply and add;
 * parity is tolerance-checked, never assumed bit-exact.
 *
 * This translation unit is compiled with -mavx2 -mfma and must only
 * be entered through the runtime dispatch (simdIsaAvailable guards).
 */

#include <immintrin.h>

#include <bit>

#include "runtime/decode_lut.hh"
#include "runtime/packed_gemm_kernels.hh"
#include "util/logging.hh"

namespace m2x {
namespace runtime {
namespace detail {

namespace {

constexpr size_t groupSize = PackedM2xfpTensor::groupSize;
constexpr unsigned subgroupSize = PackedM2xfpTensor::subgroupSize;
constexpr unsigned bytesPerGroup =
    PackedM2xfpTensor::bytesPerGroupElems;
constexpr unsigned nSubgroups = groupSize / subgroupSize;

/** Scalar tables plus their vector-register forms. */
struct Avx2Tables
{
    const DecodeTables *lut;
    __m256 fp4Mag; //!< fp4Value[0..7]: the positive half
};

const Avx2Tables &
tables()
{
    static const Avx2Tables t = [] {
        const DecodeTables &lut = DecodeTables::get();
        // The vector decode reconstructs negative codes as
        // sign-bit XOR on the positive entry; that is only
        // bit-identical to the scalar table if the table itself is
        // sign-symmetric (it is, for FP4 E2M1 — including -0.0).
        for (unsigned i = 0; i < 8; ++i)
            m2x_assert(std::bit_cast<uint32_t>(lut.fp4Value[8 + i]) ==
                       (std::bit_cast<uint32_t>(lut.fp4Value[i]) ^
                        0x80000000u),
                       "FP4 value table is not sign-symmetric");
        return Avx2Tables{&lut, _mm256_loadu_ps(lut.fp4Value)};
    }();
    return t;
}

/** FP4 decode of 8 codes (32-bit lanes): magnitude permute + sign. */
inline __m256
decodeFp4x8(__m256i codes, __m256 mag_table)
{
    __m256i mag = _mm256_and_si256(codes, _mm256_set1_epi32(7));
    __m256i sign = _mm256_slli_epi32(
        _mm256_and_si256(codes, _mm256_set1_epi32(8)), 28);
    __m256 val = _mm256_permutevar8x32_ps(mag_table, mag);
    return _mm256_xor_ps(val, _mm256_castsi256_ps(sign));
}

/**
 * Split one group's 16 packed bytes into 32 interleaved 4-bit codes
 * (element order: byte i's low nibble is element 2i), returned as
 * four 8-code chunks — one per subgroup.
 */
inline void
splitNibbles(const uint8_t *bytes, __m128i chunk[4])
{
    __m128i raw = _mm_loadu_si128(
        reinterpret_cast<const __m128i *>(bytes));
    __m128i mask = _mm_set1_epi8(0x0f);
    __m128i lo = _mm_and_si128(raw, mask);
    __m128i hi = _mm_and_si128(_mm_srli_epi16(raw, 4), mask);
    __m128i il0 = _mm_unpacklo_epi8(lo, hi); // codes 0..15
    __m128i il1 = _mm_unpackhi_epi8(lo, hi); // codes 16..31
    chunk[0] = il0;
    chunk[1] = _mm_srli_si128(il0, 8);
    chunk[2] = il1;
    chunk[3] = _mm_srli_si128(il1, 8);
}

} // anonymous namespace

void
decodeWeightGroupAvx2(const PackedM2xfpTensor &t, size_t row,
                      size_t group, float *out)
{
    const Avx2Tables &tab = tables();
    float sval = tab.lut->e8m0Value[t.scaleCode(row, group)];
    uint8_t meta = t.groupMetaByte(row, group);

    __m128i chunk[4];
    splitNibbles(t.groupElementBytes(row, group), chunk);
    // One subgroup = one 8-lane vector; same two multiplies in the
    // same order as the scalar decode (value * (sval * mult)).
    for (unsigned s = 0; s < nSubgroups; ++s) {
        float mult = tab.lut->sgEmMult[(meta >> (2 * s)) & 0x3u];
        __m256 scale = _mm256_set1_ps(sval * mult);
        __m256 val = decodeFp4x8(_mm256_cvtepu8_epi32(chunk[s]),
                                 tab.fp4Mag);
        _mm256_storeu_ps(out + subgroupSize * s,
                         _mm256_mul_ps(val, scale));
    }
}

void
decodeActivationGroupAvx2(const PackedM2xfpTensor &t, size_t row,
                          size_t group, float *out)
{
    const Avx2Tables &tab = tables();
    const uint8_t *bytes = t.groupElementBytes(row, group);
    float sval = tab.lut->e8m0Value[t.scaleCode(row, group)];
    uint8_t meta = t.groupMetaByte(row, group);

    __m128i chunk[4];
    splitNibbles(bytes, chunk);
    __m256 scale = _mm256_set1_ps(sval);
    alignas(16) uint8_t codes[groupSize];
    // Elem-EM top-1 selection in the same pass: the subgroup's
    // argmax of (code & 7) with ties to the lowest index, found as
    // a horizontal max over keys (mag << 3) | (7 - lane) — equal
    // magnitudes then rank by descending (7 - lane), i.e. the
    // lowest lane wins, exactly the scalar decode's strict-compare
    // scan. The winning element is re-read from the metadata-
    // adjusted FP6 table, matching runtime/decode_lut bit for bit.
    const __m256i lane_rev =
        _mm256_setr_epi32(7, 6, 5, 4, 3, 2, 1, 0);
    for (unsigned s = 0; s < nSubgroups; ++s) {
        _mm_storel_epi64(
            reinterpret_cast<__m128i *>(codes + subgroupSize * s),
            chunk[s]);
        __m256i c32 = _mm256_cvtepu8_epi32(chunk[s]);
        __m256 val = decodeFp4x8(c32, tab.fp4Mag);
        _mm256_storeu_ps(out + subgroupSize * s,
                         _mm256_mul_ps(val, scale));

        __m256i mag = _mm256_and_si256(c32, _mm256_set1_epi32(7));
        __m256i key = _mm256_or_si256(_mm256_slli_epi32(mag, 3),
                                      lane_rev);
        __m128i mx = _mm_max_epi32(_mm256_castsi256_si128(key),
                                   _mm256_extracti128_si256(key, 1));
        mx = _mm_max_epi32(
            mx, _mm_shuffle_epi32(mx, _MM_SHUFFLE(1, 0, 3, 2)));
        mx = _mm_max_epi32(
            mx, _mm_shuffle_epi32(mx, _MM_SHUFFLE(2, 3, 0, 1)));
        unsigned best =
            7u - (static_cast<uint32_t>(_mm_cvtsi128_si32(mx)) & 7u);
        uint8_t mcode = (meta >> (2 * s)) & 0x3u;
        out[s * subgroupSize + best] =
            tab.lut->elemEmValue[codes[s * subgroupSize + best]]
                                [mcode] *
            sval;
    }
}

void
decodeActivationRowAvx2(const PackedM2xfpTensor &t, size_t row,
                        float *out)
{
    for (size_t g = 0; g < t.groupsPerRow(); ++g)
        decodeActivationGroupAvx2(t, row, g, out + g * groupSize);
}

void
decodeWeightRowAvx2(const PackedM2xfpTensor &t, size_t row,
                    float *out)
{
    for (size_t g = 0; g < t.groupsPerRow(); ++g)
        decodeWeightGroupAvx2(t, row, g, out + g * groupSize);
}

void
microKernelAvx2(const double *a, size_t a_stride, const double *ws,
                size_t nr, size_t p0, size_t p1, size_t mr_cur,
                double *acc, size_t acc_stride)
{
    // Broadcast-form register tile, MR=4 x NR=8: per depth step the
    // sliver contributes two 4-wide W vectors and each A row one
    // broadcast, feeding 8 independent FMA chains — enough to cover
    // the FMA latency at two issues per cycle. The accumulators
    // live in acc across KC slices; they are staged through
    // registers for the sweep and stored back at the end.
    m2x_assert(nr == 8, "microKernelAvx2 expects nr=8, got %zu", nr);
    if (mr_cur == 4) {
        double *r0 = acc;
        double *r1 = acc + acc_stride;
        double *r2 = acc + 2 * acc_stride;
        double *r3 = acc + 3 * acc_stride;
        __m256d c0l = _mm256_loadu_pd(r0);
        __m256d c0h = _mm256_loadu_pd(r0 + 4);
        __m256d c1l = _mm256_loadu_pd(r1);
        __m256d c1h = _mm256_loadu_pd(r1 + 4);
        __m256d c2l = _mm256_loadu_pd(r2);
        __m256d c2h = _mm256_loadu_pd(r2 + 4);
        __m256d c3l = _mm256_loadu_pd(r3);
        __m256d c3h = _mm256_loadu_pd(r3 + 4);
        const double *a0 = a;
        const double *a1 = a + a_stride;
        const double *a2 = a + 2 * a_stride;
        const double *a3 = a + 3 * a_stride;
        for (size_t p = p0; p < p1; ++p) {
            const double *wp = ws + p * 8;
            __m256d wl = _mm256_loadu_pd(wp);
            __m256d wh = _mm256_loadu_pd(wp + 4);
            __m256d av = _mm256_broadcast_sd(a0 + p);
            c0l = _mm256_fmadd_pd(av, wl, c0l);
            c0h = _mm256_fmadd_pd(av, wh, c0h);
            av = _mm256_broadcast_sd(a1 + p);
            c1l = _mm256_fmadd_pd(av, wl, c1l);
            c1h = _mm256_fmadd_pd(av, wh, c1h);
            av = _mm256_broadcast_sd(a2 + p);
            c2l = _mm256_fmadd_pd(av, wl, c2l);
            c2h = _mm256_fmadd_pd(av, wh, c2h);
            av = _mm256_broadcast_sd(a3 + p);
            c3l = _mm256_fmadd_pd(av, wl, c3l);
            c3h = _mm256_fmadd_pd(av, wh, c3h);
        }
        _mm256_storeu_pd(r0, c0l);
        _mm256_storeu_pd(r0 + 4, c0h);
        _mm256_storeu_pd(r1, c1l);
        _mm256_storeu_pd(r1 + 4, c1h);
        _mm256_storeu_pd(r2, c2l);
        _mm256_storeu_pd(r2 + 4, c2h);
        _mm256_storeu_pd(r3, c3l);
        _mm256_storeu_pd(r3 + 4, c3h);
        return;
    }
    // Ragged edge (mr_cur < 4): per-row two-accumulator sweep.
    for (size_t ii = 0; ii < mr_cur; ++ii) {
        double *r = acc + ii * acc_stride;
        const double *ar = a + ii * a_stride;
        __m256d cl = _mm256_loadu_pd(r);
        __m256d ch = _mm256_loadu_pd(r + 4);
        for (size_t p = p0; p < p1; ++p) {
            const double *wp = ws + p * 8;
            __m256d av = _mm256_broadcast_sd(ar + p);
            cl = _mm256_fmadd_pd(av, _mm256_loadu_pd(wp), cl);
            ch = _mm256_fmadd_pd(av, _mm256_loadu_pd(wp + 4), ch);
        }
        _mm256_storeu_pd(r, cl);
        _mm256_storeu_pd(r + 4, ch);
    }
}

} // namespace detail
} // namespace runtime
} // namespace m2x

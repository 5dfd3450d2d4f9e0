/**
 * @file
 * Fast-path online activation encoder for the packed-domain runtime.
 *
 * PackedLinear::forward must quantize its activations on every call
 * (Elem-EM-top1, Alg. 1 of the paper) before the packed GEMM can
 * start — the "quantization overhead on the critical path" that MX
 * deployments have to amortize. The functional codec
 * (ElemEmQuantizer::encodeGroup) is built for clarity: it allocates
 * two heap vectors per 32-element group and encodes every element
 * through a binary search over the minifloat value table. This
 * subsystem re-implements the same pipeline as allocation-free
 * per-ISA kernels that write the three packed streams directly:
 *
 *   group absmax -> shared E8M0 scale (any ScaleRule)
 *   FP4 E2M1 round-to-nearest-even of every scaled element
 *   per-subgroup top-1 selection in the FP4 code domain
 *   FP6 E2M3 re-round of the top-1 element -> 2-bit metadata
 *
 * The contract is *byte-exactness*, not value closeness: for the
 * paper activation config (g32/sg8, top-1, clamped bias, fixed
 * shared scale) every kernel tier must produce element/scale/meta
 * streams identical to PackedM2xfpTensor::packActivations(m, q) —
 * asserted exhaustively by tests/runtime/packed_quantize_test.cc,
 * including NaN/Inf/denormal inputs and rounding-tie boundaries.
 * Unlike the GEMM tiers (where vector accumulation reassociates the
 * sum), encoding is elementwise, so the AVX2 tier is held to the
 * same bit-exact contract as the scalar oracle.
 *
 * Tier selection goes through the same SimdIsa dispatch as the GEMM
 * microkernels (runtime/simd.hh): M2X_SIMD governs both the encode
 * and the GEMM tier. The AVX-512 tier's activation encoder is the
 * AVX2 one — a 16-lane version was byte-identical but no faster, as
 * the narrow stores of the pack dominate. Rows are independent, so
 * the row loop is distributed over a ThreadPool.
 *
 * The same table carries a second encoder family: the paper's Sg-EM
 * weight codec (g32/sg8, 2-bit subgroup multipliers, optional
 * adaptive bias), which backs construction-time weight packing for
 * every E8M0 codec and the sg_em activation / KV-append path. The
 * functional SgEmQuantizer::encodeGroup tries 3 biases x 4
 * multipliers per subgroup through the value-table binary search;
 * the kernels instead evaluate all 12 candidate scales of a group in
 * one vector pass — one candidate per lane, each lane keeping its
 * own in-order double error sum — so the chosen scale, metadata and
 * codes are bit-identical to the functional encoder
 * (tests/runtime/sg_em_encode_test.cc).
 *
 * The public entry points are the PackedM2xfpTensor::packActivations
 * / packWeights (pool, isa) overloads declared in core/m2xfp_packed.hh
 * and defined here in the runtime library; this header exposes the
 * kernel table and the per-group encoders for tests and benches.
 */

#ifndef M2X_RUNTIME_PACKED_QUANTIZE_HH__
#define M2X_RUNTIME_PACKED_QUANTIZE_HH__

#include <cmath>
#include <cstdint>

#include "core/m2xfp_packed.hh"
#include "formats/e8m0.hh"
#include "formats/minifloat.hh"
#include "quant/scale_rules.hh"
#include "runtime/simd.hh"
#include "runtime/thread_pool.hh"

namespace m2x {
namespace runtime {
namespace detail {

/**
 * Encode one row of @p cols floats into the packed streams: the
 * row's ceil(cols/32) groups of element bytes (16 per group), E8M0
 * scale codes and metadata bytes. The tail group is zero-padded
 * exactly like the functional packer.
 */
using QuantizeRowFn = void (*)(const float *src, size_t cols,
                               ScaleRule rule, uint8_t *elems,
                               uint8_t *scales, uint8_t *meta);

/**
 * Encode one full (32-element, caller-padded) group with the paper
 * Sg-EM codec (g32/sg8, multipliers 1 + m/4) under @p rule, trying
 * the biases b in {-1, 0, +1} when @p adaptive (b = 0 only
 * otherwise): 16 element bytes, the E8M0 scale code (bias absorbed)
 * and the metadata byte (subgroup 0 in the low bits). Byte-identical
 * to SgEmQuantizer::encodeGroup with the same configuration.
 */
using SgEmEncodeGroupFn = void (*)(const float *in, ScaleRule rule,
                                   bool adaptive, uint8_t *elems,
                                   uint8_t *scale, uint8_t *meta);

/** The per-ISA encoder set used by the fast-path packers. */
struct QuantizeKernels
{
    QuantizeRowFn quantizeActivationRow;
    SgEmEncodeGroupFn encodeSgEmGroup;
};

/**
 * Kernel table for @p isa. Asking for a tier that is not compiled in
 * returns the scalar table (callers guard with simdIsaAvailable).
 */
const QuantizeKernels &quantizeKernels(SimdIsa isa);

/** Scalar tier: the allocation-free bit-exact oracle. */
void quantizeActivationRowScalar(const float *src, size_t cols,
                                 ScaleRule rule, uint8_t *elems,
                                 uint8_t *scales, uint8_t *meta);

/**
 * Encode one full (32-element, caller-padded) group. Exposed for the
 * group-granular parity sweeps.
 */
void encodeActivationGroupScalar(const float *in, ScaleRule rule,
                                 uint8_t *elems, uint8_t *scale,
                                 uint8_t *meta);

#ifdef M2X_HAVE_AVX2
/** AVX2 tier: vector absmax / FP4 RNE / top-1 selection. */
void quantizeActivationRowAvx2(const float *src, size_t cols,
                               ScaleRule rule, uint8_t *elems,
                               uint8_t *scales, uint8_t *meta);

void encodeActivationGroupAvx2(const float *in, ScaleRule rule,
                               uint8_t *elems, uint8_t *scale,
                               uint8_t *meta);
#endif // M2X_HAVE_AVX2

/** @{ Per-tier Sg-EM group encoders (see SgEmEncodeGroupFn). */
void encodeSgEmGroupScalar(const float *in, ScaleRule rule,
                           bool adaptive, uint8_t *elems,
                           uint8_t *scale, uint8_t *meta);
#ifdef M2X_HAVE_AVX2
void encodeSgEmGroupAvx2(const float *in, ScaleRule rule,
                         bool adaptive, uint8_t *elems, uint8_t *scale,
                         uint8_t *meta);
#endif
#ifdef M2X_HAVE_AVX512
void encodeSgEmGroupAvx512(const float *in, ScaleRule rule,
                           bool adaptive, uint8_t *elems,
                           uint8_t *scale, uint8_t *meta);
#endif
/** @} */

/** Candidate scales per Sg-EM group: 3 biases x 4 multipliers. Lane
 *  c = 4 * (b + 1) + m of every candidate vector holds (b, m). */
constexpr unsigned sgEmCandidates = 12;

/**
 * The paper Sg-EM subgroup scales for every E8M0 scale code:
 * scale[code][m] = SgEmQuantizer::subgroupScale(fromCode(code), m)
 * and inv[code][m] = 1.0f / scale[code][m] — the exact floats the
 * functional encoder multiplies by, looked up instead of recomputed
 * (12 exp2 calls per group) by every kernel tier.
 */
struct SgEmScaleTable
{
    float scale[255][4];
    float inv[255][4];

    /** The process-wide table (built on first use, thread-safe). */
    static const SgEmScaleTable &get();
};

/**
 * The scale codes of the three bias candidates b = -1, 0, +1 of a
 * group with block max @p amax: the rule's shared scale shifted by b
 * (saturating at the E8M0 range, so at the clamp two candidates share
 * a code). Without @p adaptive all three are the unshifted code.
 */
inline void
sgEmCandidateCodes(float amax, ScaleRule rule, bool adaptive,
                   unsigned codes[3])
{
    ScaleE8m0 s0 =
        computeSharedScale(amax, Minifloat::fp4e2m1(), rule);
    for (int b = -1; b <= 1; ++b)
        codes[b + 1] = (adaptive ? s0.shifted(b) : s0).code();
}

/**
 * Pick the winning candidate from the per-subgroup candidate errors
 * @p err (err[s][4 * bi + m], bi = b + 1) with the functional
 * encoder's exact rules: per bias, each subgroup keeps the first
 * minimum over m (a later m wins only when strictly smaller, so a NaN
 * error never replaces the current best and a NaN best is never
 * replaced); the bias total sums the subgroup minima in subgroup
 * order from 0.0; the first minimal bias wins under the same strict
 * rule. Only bi = 1 (b = 0) competes without @p adaptive. Writes the
 * winner's multipliers to @p mult and returns its bi.
 */
inline unsigned
sgEmSelect(const double err[][sgEmCandidates], bool adaptive,
           uint8_t mult[4])
{
    unsigned b_first = adaptive ? 0 : 1;
    unsigned b_last = adaptive ? 2 : 1;
    unsigned best_b = b_first;
    double best_total = 0.0;
    uint8_t m_of[3][4];
    for (unsigned b = b_first; b <= b_last; ++b) {
        double total = 0.0;
        for (unsigned s = 0; s < 4; ++s) {
            const double *e = err[s] + 4 * b;
            unsigned best_m = 0;
            for (unsigned m = 1; m < 4; ++m)
                if (e[m] < e[best_m])
                    best_m = m;
            m_of[b][s] = static_cast<uint8_t>(best_m);
            total += e[best_m];
        }
        if (b == b_first || total < best_total) {
            best_total = total;
            best_b = b;
        }
    }
    for (unsigned s = 0; s < 4; ++s)
        mult[s] = m_of[best_b][s];
    return best_b;
}

/** Metadata byte of four 2-bit multipliers (subgroup 0 low). */
inline uint8_t
sgEmMetaByte(const uint8_t mult[4])
{
    return static_cast<uint8_t>(mult[0] | (mult[1] << 2) |
                                (mult[2] << 4) | (mult[3] << 6));
}

/**
 * parallelFor grain (rows per chunk) for @p rows distributed over
 * @p lanes. Invariants (property-tested):
 *  - 1 <= grain <= max(rows, 1);
 *  - for lanes >= 2, the chunk count ceil(rows/grain) is at least
 *    min(rows, 2*lanes) — no shape serializes onto a few lanes.
 */
size_t packedQuantizeGrain(size_t rows, size_t lanes);

/**
 * FP4 E2M1 code (sign | 3-bit magnitude) of @p x with
 * round-to-nearest, ties to the even code, saturating at the largest
 * finite magnitude — bit-identical to Minifloat::fp4e2m1().encode()
 * for every float (NaN maps to +6.0, code 7). The branchless
 * threshold ladder replaces the value-table binary search: each
 * magnitude boundary is the exactly-representable midpoint between
 * adjacent FP4 values, compared strictly or inclusively so the tie
 * lands on the even code.
 */
inline uint32_t
fp4CodeRne(float x)
{
    if (std::isnan(x))
        return 7;
    uint32_t sign = std::signbit(x) ? 8u : 0u;
    float a = std::fabs(x);
    uint32_t mag = 0;
    mag += a > 0.25f;  // 0   vs 0.5: tie -> code 0
    mag += a >= 0.75f; // 0.5 vs 1  : tie -> code 2
    mag += a > 1.25f;  // 1   vs 1.5: tie -> code 2
    mag += a >= 1.75f; // 1.5 vs 2  : tie -> code 4
    mag += a > 2.5f;   // 2   vs 3  : tie -> code 4
    mag += a >= 3.5f;  // 3   vs 4  : tie -> code 6
    mag += a > 5.0f;   // 4   vs 6  : tie -> code 6
    return sign | mag;
}

/**
 * FP6 E2M3 magnitude code of @p a >= 0 (or NaN), RNE with ties to
 * the even code, saturating at 7.5 — bit-identical to
 * Minifloat::fp6e2m3().encode(a) & 0x1f. Within each binade the FP6
 * grid is uniform, so the code is the grid multiple rounded with
 * lrintf (RNE under the default rounding mode); the multiplies by
 * 8/4/2 are exact.
 */
inline uint32_t
fp6MagRne(float a)
{
    if (std::isnan(a) || a >= 7.5f)
        return 31;
    if (a < 2.0f) // subnormals + [1, 2): codes 0..16, step 0.125
        return static_cast<uint32_t>(std::lrintf(a * 8.0f));
    if (a < 4.0f) // [2, 4): codes 16..24, step 0.25
        return 8u + static_cast<uint32_t>(std::lrintf(a * 4.0f));
    // [4, 7.5): codes 24..31, step 0.5
    return 16u + static_cast<uint32_t>(std::lrintf(a * 2.0f));
}

} // namespace detail
} // namespace runtime
} // namespace m2x

#endif // M2X_RUNTIME_PACKED_QUANTIZE_HH__

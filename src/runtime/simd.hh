/**
 * @file
 * SIMD capability probe and one-time kernel-tier dispatch for the
 * packed-domain execution runtime.
 *
 * The runtime carries one microkernel implementation per ISA tier:
 * a portable scalar tier that is the bit-exact oracle (identical to
 * matmulNt over the unpacked operands), an AVX2+FMA tier, and an
 * AVX-512 tier (F+BW) whose LUT decode and accumulation are
 * vectorized (verified against the scalar tier to tight tolerance,
 * since vector accumulation changes the summation order). The tier
 * is chosen once per process, from cpuid, and can be pinned with the
 * M2X_SIMD environment variable:
 *
 *   M2X_SIMD=scalar   force the scalar fallback
 *   M2X_SIMD=avx2     force AVX2 (warns and falls back to the best
 *                     remaining tier if the CPU or build cannot run
 *                     it)
 *   M2X_SIMD=avx512   force AVX-512 (same graceful downgrade)
 *   M2X_SIMD=auto     (or unset) best tier the machine supports
 *
 * The AVX-512 tier's activation encoder is the AVX2 one (see
 * runtime/packed_quantize.hh); every other kernel runs at the tier.
 *
 * Code that wants a specific tier regardless of the environment
 * (tests, the per-ISA bench comparison) passes a SimdIsa explicitly
 * to the packedMatmulNt / PackedLinear overloads instead.
 */

#ifndef M2X_RUNTIME_SIMD_HH__
#define M2X_RUNTIME_SIMD_HH__

#include <vector>

namespace m2x {
namespace runtime {

/** Kernel tiers, in increasing preference order. */
enum class SimdIsa {
    Scalar, //!< portable fallback; bit-exact GEMM oracle
    Avx2,   //!< AVX2+FMA microkernels (x86-64)
    Avx512, //!< AVX-512 F+BW microkernels (x86-64)
};

/** Stable lowercase name ("scalar", "avx2", "avx512") for logs and
 *  JSON. */
const char *simdIsaName(SimdIsa isa);

/** True when the tier is compiled in AND this CPU can run it. */
bool simdIsaAvailable(SimdIsa isa);

/** Every available tier, scalar first. */
std::vector<SimdIsa> supportedSimdIsas();

/**
 * The process-wide dispatch decision, resolved once on first call:
 * the M2X_SIMD override if set, else the best available tier.
 */
SimdIsa activeSimdIsa();

/** simdIsaName(activeSimdIsa()). */
const char *activeSimdIsaName();

namespace detail {

/**
 * Pure resolution of an M2X_SIMD value (nullptr = unset) to a tier;
 * exposed so tests can cover the parsing without re-execing.
 */
SimdIsa resolveSimdIsa(const char *env);

} // namespace detail

} // namespace runtime
} // namespace m2x

#endif // M2X_RUNTIME_SIMD_HH__

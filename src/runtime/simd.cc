#include "runtime/simd.hh"

#include <cstdlib>
#include <cstring>

#include "util/logging.hh"

namespace m2x {
namespace runtime {

namespace {

bool
cpuHasAvx2()
{
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
    return __builtin_cpu_supports("avx2") &&
           __builtin_cpu_supports("fma");
#else
    return false;
#endif
}

bool
cpuHasAvx512()
{
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
    // The kernels are compiled -mavx512f -mavx512bw and also lean on
    // the AVX2 tier (the tier's activation encoder is the AVX2 one),
    // so demand all of it.
    return __builtin_cpu_supports("avx512f") &&
           __builtin_cpu_supports("avx512bw") && cpuHasAvx2();
#else
    return false;
#endif
}

SimdIsa
bestAvailableIsa()
{
    if (simdIsaAvailable(SimdIsa::Avx512))
        return SimdIsa::Avx512;
    return simdIsaAvailable(SimdIsa::Avx2) ? SimdIsa::Avx2
                                           : SimdIsa::Scalar;
}

} // anonymous namespace

const char *
simdIsaName(SimdIsa isa)
{
    switch (isa) {
      case SimdIsa::Avx512:
        return "avx512";
      case SimdIsa::Avx2:
        return "avx2";
      case SimdIsa::Scalar:
        return "scalar";
    }
    return "scalar";
}

bool
simdIsaAvailable(SimdIsa isa)
{
    switch (isa) {
      case SimdIsa::Scalar:
        return true;
      case SimdIsa::Avx2:
#ifdef M2X_HAVE_AVX2
        return cpuHasAvx2();
#else
        return false;
#endif
      case SimdIsa::Avx512:
#ifdef M2X_HAVE_AVX512
        return cpuHasAvx512();
#else
        return false;
#endif
    }
    return false;
}

std::vector<SimdIsa>
supportedSimdIsas()
{
    std::vector<SimdIsa> isas{SimdIsa::Scalar};
    if (simdIsaAvailable(SimdIsa::Avx2))
        isas.push_back(SimdIsa::Avx2);
    if (simdIsaAvailable(SimdIsa::Avx512))
        isas.push_back(SimdIsa::Avx512);
    return isas;
}

namespace detail {

SimdIsa
resolveSimdIsa(const char *env)
{
    if (!env || !*env || std::strcmp(env, "auto") == 0)
        return bestAvailableIsa();
    if (std::strcmp(env, "scalar") == 0)
        return SimdIsa::Scalar;
    if (std::strcmp(env, "avx2") == 0) {
        if (simdIsaAvailable(SimdIsa::Avx2))
            return SimdIsa::Avx2;
        m2x_warn("M2X_SIMD=avx2 requested but AVX2 is unavailable "
                 "(not compiled in, or unsupported CPU); using the "
                 "scalar fallback");
        return SimdIsa::Scalar;
    }
    if (std::strcmp(env, "avx512") == 0) {
        if (simdIsaAvailable(SimdIsa::Avx512))
            return SimdIsa::Avx512;
        SimdIsa fb = bestAvailableIsa();
        m2x_warn("M2X_SIMD=avx512 requested but AVX-512 is "
                 "unavailable (not compiled in, or unsupported CPU); "
                 "falling back to the best remaining tier '%s'",
                 simdIsaName(fb));
        return fb;
    }
    m2x_warn("ignoring unknown M2X_SIMD value '%s' "
             "(want scalar|avx2|avx512|auto)", env);
    return bestAvailableIsa();
}

} // namespace detail

SimdIsa
activeSimdIsa()
{
    static const SimdIsa isa =
        detail::resolveSimdIsa(std::getenv("M2X_SIMD"));
    return isa;
}

const char *
activeSimdIsaName()
{
    return simdIsaName(activeSimdIsa());
}

} // namespace runtime
} // namespace m2x

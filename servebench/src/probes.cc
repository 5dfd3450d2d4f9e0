#include "probes.hh"

#include <algorithm>
#include <memory>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "runtime/simd.hh"
#include "runtime/telemetry.hh"

namespace servebench {

using m2x::runtime::ThreadPool;
namespace telemetry = m2x::runtime::telemetry;

namespace {

constexpr int reps = 5;
/** FMA iterations per lane per repetition. */
constexpr long fmaIters = 1L << 22;
/** Independent accumulators: enough to cover FMA latency x ports. */
constexpr int chains = 12;

/** Opaque sink so the FMA results stay live. */
volatile float fmaSink = 0.0f;

#if defined(__x86_64__)
__attribute__((target("avx512f"))) double
fmaLaneAvx512()
{
    __m512 acc[chains];
    for (int c = 0; c < chains; ++c)
        acc[c] = _mm512_set1_ps(1.0f + 0.001f * static_cast<float>(c));
    const __m512 a = _mm512_set1_ps(0.999999f);
    const __m512 b = _mm512_set1_ps(1e-7f);
    for (long i = 0; i < fmaIters; ++i)
        for (int c = 0; c < chains; ++c)
            acc[c] = _mm512_fmadd_ps(acc[c], a, b);
    alignas(64) float lanes[16];
    float s = 0.0f;
    for (int c = 0; c < chains; ++c) {
        _mm512_store_ps(lanes, acc[c]);
        for (float x : lanes)
            s += x;
    }
    fmaSink = s;
    return 2.0 * 16.0 * chains * static_cast<double>(fmaIters);
}

__attribute__((target("avx2,fma"))) double
fmaLaneAvx2()
{
    __m256 acc[chains];
    for (int c = 0; c < chains; ++c)
        acc[c] = _mm256_set1_ps(1.0f + 0.001f * static_cast<float>(c));
    const __m256 a = _mm256_set1_ps(0.999999f);
    const __m256 b = _mm256_set1_ps(1e-7f);
    for (long i = 0; i < fmaIters; ++i)
        for (int c = 0; c < chains; ++c)
            acc[c] = _mm256_fmadd_ps(acc[c], a, b);
    alignas(32) float lanes[8];
    float s = 0.0f;
    for (int c = 0; c < chains; ++c) {
        _mm256_store_ps(lanes, acc[c]);
        for (float x : lanes)
            s += x;
    }
    fmaSink = s;
    return 2.0 * 8.0 * chains * static_cast<double>(fmaIters);
}
#endif

double
fmaLaneScalar()
{
    float acc[chains];
    for (int c = 0; c < chains; ++c)
        acc[c] = 1.0f + 0.001f * static_cast<float>(c);
    for (long i = 0; i < fmaIters; ++i)
        for (int c = 0; c < chains; ++c)
            acc[c] = acc[c] * 0.999999f + 1e-7f;
    float s = 0.0f;
    for (float x : acc)
        s += x;
    fmaSink = s;
    return 2.0 * chains * static_cast<double>(fmaIters);
}

double
fmaLane()
{
#if defined(__x86_64__)
    switch (m2x::runtime::activeSimdIsa()) {
    case m2x::runtime::SimdIsa::Avx512:
        return fmaLaneAvx512();
    case m2x::runtime::SimdIsa::Avx2:
        return fmaLaneAvx2();
    default:
        break;
    }
#endif
    return fmaLaneScalar();
}

/** Best rate of @p reps runs of @p body over one chunk per lane. */
template <typename Body>
double
bestRate(ThreadPool &pool, double work_per_lane, const Body &body)
{
    double best = 0.0;
    const size_t lanes = pool.size();
    for (int r = 0; r < reps; ++r) {
        uint64_t t0 = telemetry::nowNanos();
        pool.parallelFor(0, lanes, 1, [&](size_t l0, size_t l1) {
            for (size_t l = l0; l < l1; ++l)
                body(l);
        });
        double s = 1e-9 * static_cast<double>(telemetry::nowNanos() - t0);
        best = std::max(best, work_per_lane * static_cast<double>(lanes) / s);
    }
    return best;
}

} // anonymous namespace

double
streamTriadGbPerS(ThreadPool &pool)
{
    constexpr size_t n = (64u << 20) / sizeof(float);
    const size_t lanes = pool.size();
    const size_t per_lane = n / lanes;
    std::unique_ptr<float[]> a(new float[n]), b(new float[n]),
        c(new float[n]);
    auto range = [&](size_t l, auto fn) {
        size_t lo = l * per_lane;
        size_t hi = l + 1 == lanes ? n : lo + per_lane;
        for (size_t i = lo; i < hi; ++i)
            fn(i);
    };
    // First touch on the lane that streams the range.
    pool.parallelFor(0, lanes, 1, [&](size_t l0, size_t l1) {
        for (size_t l = l0; l < l1; ++l)
            range(l, [&](size_t i) {
                a[i] = 0.0f;
                b[i] = 1.0f;
                c[i] = 2.0f;
            });
    });
    const float s = 3.0f;
    double bytes_per_lane =
        3.0 * sizeof(float) * static_cast<double>(n) /
        static_cast<double>(lanes);
    return 1e-9 * bestRate(pool, bytes_per_lane, [&](size_t l) {
               range(l, [&](size_t i) { a[i] = b[i] + s * c[i]; });
           });
}

double
fmaPeakGflops(ThreadPool &pool)
{
    double per_lane = fmaLane(); // warm-up; also the per-lane count
    return 1e-9 *
           bestRate(pool, per_lane, [](size_t) { fmaLane(); });
}

} // namespace servebench

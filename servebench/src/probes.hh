/**
 * @file
 * Roofline probes run in the benchmark at the engine's lane count:
 * a STREAM-style triad for memory bandwidth and an FMA loop for
 * compute peak. The kernel-layer rates the benchmark prints are
 * read against these two numbers. Both probes, like every byte and
 * FLOP count in the benchmark, are computed from sizes and loop
 * counts, not counted by hardware.
 */

#ifndef SERVEBENCH_PROBES_HH__
#define SERVEBENCH_PROBES_HH__

#include "runtime/thread_pool.hh"

namespace servebench {

/**
 * Best-of-five a[i] = b[i] + s * c[i] over three 64 MiB float arrays
 * split across the pool's lanes; counts 3 * 4 bytes per element.
 */
double streamTriadGbPerS(m2x::runtime::ThreadPool &pool);

/**
 * Best-of-five independent fused multiply-add chains on every lane,
 * at the widest vector width the running CPU supports (AVX-512,
 * AVX2, else scalar); counts 2 FLOPs per FMA lane.
 */
double fmaPeakGflops(m2x::runtime::ThreadPool &pool);

} // namespace servebench

#endif // SERVEBENCH_PROBES_HH__

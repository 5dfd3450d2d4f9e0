/**
 * @file
 * A small fixed-size thread pool with a chunked parallel-for.
 *
 * The execution runtime (packed GEMM, ServingEngine) needs fork/
 * join data parallelism over index ranges, nothing more — so this is
 * deliberately not a general task system: one job is active at a
 * time, workers pull fixed-grain chunks off a shared atomic cursor
 * (cache-friendly: consecutive chunks go to whichever lane is free,
 * so load imbalance is bounded by one grain), and the calling thread
 * participates instead of blocking idle. No work stealing, no
 * queues, no allocation on the hot path.
 *
 * All blocking uses mutex + condition_variable (no spin waits), so
 * the pool is well-behaved under sanitizers and on oversubscribed
 * machines.
 */

#ifndef M2X_RUNTIME_THREAD_POOL_HH__
#define M2X_RUNTIME_THREAD_POOL_HH__

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace m2x {
namespace runtime {

/**
 * Fixed set of worker threads executing chunked parallel-for jobs.
 * parallelFor is safe to call from any number of threads: one caller
 * at a time owns the workers (the job slot is claimed with a
 * try-lock) and every other concurrent or nested call runs its range
 * inline on the calling thread — correct, just without extra
 * parallelism.
 */
class ThreadPool
{
  public:
    /**
     * @param n_threads total parallel lanes (including the caller);
     *        0 picks defaultThreads(). A pool of size 1 spawns no
     *        workers and runs everything inline.
     */
    explicit ThreadPool(unsigned n_threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total parallel lanes (workers + the calling thread). */
    unsigned size() const { return nLanes_; }

    /**
     * Invoke @p body over [begin, end) in chunks of at most @p grain
     * indices: body(chunk_begin, chunk_end). Returns when every index
     * has been processed. The caller's thread participates.
     *
     * Exception-safe drain: if @p body throws on any lane — worker
     * or caller — the first exception is captured, the remaining
     * chunks are abandoned, every lane finishes with the job, and
     * the exception is rethrown on the calling thread. Chunks that
     * were already running on other lanes when the throw happened
     * still complete, so side effects of non-throwing chunks are
     * not rolled back.
     */
    void parallelFor(size_t begin, size_t end, size_t grain,
                     const std::function<void(size_t, size_t)> &body);

    /**
     * Lanes to use when none are requested: the M2X_THREADS
     * environment variable if set, else std::thread's hardware
     * concurrency (at least 1). M2X_THREADS must be a full integer
     * in [1, LONG_MAX] (values above 1024 are clamped to 1024);
     * malformed values — trailing garbage like "8x", empty, zero,
     * negative, or out-of-range — warn and fall back to hardware
     * concurrency.
     */
    static unsigned defaultThreads();

    /** A shared process-wide pool sized with defaultThreads(). */
    static ThreadPool &global();

  private:
    struct Job
    {
        const std::function<void(size_t, size_t)> *body = nullptr;
        std::atomic<size_t> next{0};
        size_t end = 0;
        size_t grain = 1;
        /** nowNanos at post time (0 unless metrics are on). */
        uint64_t postNanos = 0;
        /** First body exception; owned by the failed CAS winner. */
        std::atomic<bool> failed{false};
        std::exception_ptr error;
    };

    void workerLoop(unsigned lane);
    static void runChunks(Job &job);

    unsigned nLanes_;
    std::vector<std::thread> workers_;

    std::mutex jobMutex_; //!< held by the caller owning the workers
    std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable done_;
    Job *job_ = nullptr;      //!< current job, guarded by mutex_
    uint64_t generation_ = 0; //!< bumps when a new job is posted
    unsigned pending_ = 0;    //!< workers that have not finished job_
    bool stop_ = false;
};

/**
 * Convenience wrapper: parallelFor on @p pool, or on the global pool
 * when @p pool is null.
 */
void parallelFor(size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t, size_t)> &body,
                 ThreadPool *pool = nullptr);

} // namespace runtime
} // namespace m2x

#endif // M2X_RUNTIME_THREAD_POOL_HH__

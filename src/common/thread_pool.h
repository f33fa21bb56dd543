/**
 * @file
 * Shared fixed-size thread pool backing every parallel hot path in the
 * repository (tensor kernels, GBT training, per-candidate scoring in the
 * hybrid model, and the benchmark sweeps).
 *
 * Design constraints, in order:
 *   1. Determinism. ParallelFor partitions [begin, end) into fixed-size
 *      blocks of `grain` indices — the block structure depends only on
 *      (begin, end, grain), never on the thread count or scheduling — so
 *      callers that keep per-block partial results and reduce them in
 *      block order produce bit-identical output with 1 or N threads.
 *   2. Safety. Nested ParallelFor calls (from inside a worker, or from a
 *      caller already inside a parallel region) execute serially inline,
 *      so parallel code can call parallel code without deadlock or
 *      unbounded oversubscription. Exceptions thrown by a block are
 *      captured and rethrown on the calling thread.
 *   3. Simplicity. No work stealing: a single mutex-protected task queue
 *      plus an atomic block cursor per ParallelFor. The hot paths hand
 *      the pool coarse blocks, so queue contention is negligible.
 *
 * Grain: every ParallelFor in the kernels passes GrainFor(work per
 * index), one shape-only rule that keeps each block at or above a fixed
 * amount of inner-loop work, so small products (the per-interval
 * decide path) run as one serial block and large ones (CNN training
 * batches) split. Only two other grains exist:
 *   - Conv2D::Backward's kConvBatchGrain, because its per-block
 *     gradient partials are reduced in block order, so that grain fixes
 *     the bytes;
 *   - grain 1 where one index is a whole shard or run (fleet phases A
 *     and B, RunSweep).
 *
 * The global pool size defaults to std::thread::hardware_concurrency(),
 * can be pinned with the SINAN_THREADS environment variable, and can be
 * changed at runtime with SetNumThreads() (e.g. the sinan_sim --threads
 * flag and the thread-sweep benchmarks).
 */
#ifndef SINAN_COMMON_THREAD_POOL_H
#define SINAN_COMMON_THREAD_POOL_H

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace sinan {

/** Fixed-size pool; the creating thread counts toward NumThreads(). */
class ThreadPool {
  public:
    /** @param n_threads total parallelism including the calling thread
     *  (clamped to >= 1; n_threads - 1 workers are spawned). */
    explicit ThreadPool(int n_threads);

    /** Drains nothing: joins workers after the queue empties. */
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** Total parallelism (workers + the submitting thread). */
    int NumThreads() const { return n_threads_; }

    /** Enqueues a task. Tasks must not block on other pool tasks. */
    void Submit(std::function<void()> task);

    /** True on a thread owned by any ThreadPool. */
    static bool OnWorkerThread();

  private:
    void WorkerMain();

    const int n_threads_;
    std::mutex mu_;
    std::condition_variable cv_;
    std::deque<std::function<void()>> queue_;
    bool stop_ = false;
    std::vector<std::thread> workers_;
};

/** The process-wide pool used by ParallelFor (created on first use). */
ThreadPool& GlobalPool();

/**
 * Resizes the global pool. @p n <= 0 restores the default
 * (SINAN_THREADS env var if set, else hardware_concurrency).
 * Must not be called concurrently with a parallel region.
 */
void SetNumThreads(int n);

/** Current global-pool parallelism. */
int NumThreads();

/**
 * Runs fn(lo, hi) for every block [lo, hi) of at most @p grain
 * consecutive indices covering [begin, end). Block b spans
 * [begin + b*grain, min(begin + (b+1)*grain, end)), so callers can
 * recover a stable block id as (lo - begin) / grain.
 *
 * Blocks execute concurrently on the global pool (the caller
 * participates); each block runs exactly once. Nested calls and 1-thread
 * pools run the blocks serially, in increasing order. The first
 * exception thrown by a block cancels not-yet-started blocks and is
 * rethrown on the calling thread.
 */
void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 const std::function<void(int64_t, int64_t)>& fn);

/**
 * Indices per ParallelFor block for a loop whose every index costs
 * @p work_per_index inner-loop element operations (one MAC, one copied
 * byte or element, one tree-node visit): the fewest indices that reach
 * the fixed minimum work per block, and at least 1. Depends only on the
 * shape, never on the thread count, so the block structure — and any
 * result that depends on it — is the same at every pool size.
 */
int64_t GrainFor(int64_t work_per_index);

} // namespace sinan

#endif // SINAN_COMMON_THREAD_POOL_H

#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>
#include <stdexcept>

#include "common/parse.h"

namespace sinan {

namespace {

/** > 0 while the current thread is inside a ParallelFor block or is a
 *  pool worker; nested parallel regions then run serially inline. */
thread_local int tl_parallel_depth = 0;

int
DefaultNumThreads()
{
    if (const char* env = std::getenv("SINAN_THREADS")) {
        int n = 0;
        if (ParseNumber(env, n) == std::errc{} && n > 0)
            return n;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

std::mutex g_pool_mu;
std::unique_ptr<ThreadPool> g_pool;

/** Minimum inner-loop element operations per ParallelFor block. Sized so
 *  every decide-path region (int8 trunk, per-candidate head, tree
 *  ensemble; each about 3e5 operations or less) stays one serial block,
 *  where splitting made it slower at 4 threads than at 1. CNN training
 *  batches still split; GBT training at ~2000 rows x 64 features does
 *  not (see DESIGN.md §5b). */
constexpr int64_t kMinBlockWork = int64_t{1} << 19;

} // namespace

ThreadPool::ThreadPool(int n_threads) : n_threads_(std::max(1, n_threads))
{
    workers_.reserve(n_threads_ - 1);
    for (int i = 0; i < n_threads_ - 1; ++i)
        workers_.emplace_back([this] { WorkerMain(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& w : workers_)
        w.join();
}

void
ThreadPool::Submit(std::function<void()> task)
{
    if (workers_.empty()) {
        // No workers: run inline so submitted work still completes.
        task();
        return;
    }
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (stop_)
            throw std::logic_error("ThreadPool::Submit after shutdown");
        queue_.push_back(std::move(task));
    }
    cv_.notify_one();
}

bool
ThreadPool::OnWorkerThread()
{
    return tl_parallel_depth > 0;
}

void
ThreadPool::WorkerMain()
{
    // Workers count as "inside a parallel region" for their whole life:
    // any ParallelFor they encounter runs serially inline.
    ++tl_parallel_depth;
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mu_);
            cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stop_ set and nothing left to run
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
    }
}

ThreadPool&
GlobalPool()
{
    std::lock_guard<std::mutex> lock(g_pool_mu);
    if (!g_pool)
        g_pool = std::make_unique<ThreadPool>(DefaultNumThreads());
    return *g_pool;
}

void
SetNumThreads(int n)
{
    std::lock_guard<std::mutex> lock(g_pool_mu);
    g_pool = std::make_unique<ThreadPool>(n > 0 ? n : DefaultNumThreads());
}

int
NumThreads()
{
    return GlobalPool().NumThreads();
}

int64_t
GrainFor(int64_t work_per_index)
{
    return 1 + (kMinBlockWork - 1) / std::max<int64_t>(1, work_per_index);
}

namespace {

/** Shared state of one ParallelFor; kept alive by shared_ptr so pool
 *  tasks that start after the caller's own loop remain valid. */
struct PforState {
    std::function<void(int64_t, int64_t)> fn;
    int64_t begin = 0;
    int64_t end = 0;
    int64_t grain = 1;
    int64_t n_blocks = 0;
    std::atomic<int64_t> next_block{0};
    std::atomic<bool> cancelled{false};

    std::mutex mu;
    std::condition_variable done_cv;
    int pending_helpers = 0;
    std::exception_ptr error;

    void
    RunBlocks()
    {
        ++tl_parallel_depth;
        for (;;) {
            const int64_t b = next_block.fetch_add(1);
            if (b >= n_blocks || cancelled.load())
                break;
            const int64_t lo = begin + b * grain;
            const int64_t hi = std::min(end, lo + grain);
            try {
                fn(lo, hi);
            } catch (...) {
                cancelled.store(true);
                std::lock_guard<std::mutex> lock(mu);
                if (!error)
                    error = std::current_exception();
            }
        }
        --tl_parallel_depth;
    }
};

} // namespace

void
ParallelFor(int64_t begin, int64_t end, int64_t grain,
            const std::function<void(int64_t, int64_t)>& fn)
{
    if (end <= begin)
        return;
    if (grain < 1)
        grain = 1;
    const int64_t n_blocks = (end - begin + grain - 1) / grain;

    // Serial path: nested regions, single-thread pools, and single
    // blocks all execute inline — same block structure, same order.
    if (tl_parallel_depth > 0 || n_blocks <= 1 ||
        GlobalPool().NumThreads() <= 1) {
        ++tl_parallel_depth;
        try {
            for (int64_t b = 0; b < n_blocks; ++b) {
                const int64_t lo = begin + b * grain;
                fn(lo, std::min(end, lo + grain));
            }
        } catch (...) {
            --tl_parallel_depth;
            throw;
        }
        --tl_parallel_depth;
        return;
    }

    ThreadPool& pool = GlobalPool();
    auto state = std::make_shared<PforState>();
    state->fn = fn;
    state->begin = begin;
    state->end = end;
    state->grain = grain;
    state->n_blocks = n_blocks;

    const int helpers = static_cast<int>(std::min<int64_t>(
        pool.NumThreads() - 1, n_blocks - 1));
    state->pending_helpers = helpers;
    for (int i = 0; i < helpers; ++i) {
        pool.Submit([state] {
            state->RunBlocks();
            std::lock_guard<std::mutex> lock(state->mu);
            if (--state->pending_helpers == 0)
                state->done_cv.notify_all();
        });
    }

    state->RunBlocks();

    std::unique_lock<std::mutex> lock(state->mu);
    state->done_cv.wait(lock,
                        [&] { return state->pending_helpers == 0; });
    if (state->error)
        std::rethrow_exception(state->error);
}

} // namespace sinan

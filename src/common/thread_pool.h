// Fixed-size worker pool with a ParallelFor convenience used by the tensor
// kernels (GEMM row-blocking, elementwise maps) and batch evaluation.

#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace optinter {

/// Completion latch for a set of tasks submitted to a ThreadPool.
///
/// Pass a TaskGroup* to ThreadPool::Submit and Wait() blocks until every
/// task submitted against THIS group has finished — independent of any
/// other work in flight on the pool. This is what lets a long-lived task
/// (e.g. the training pipeline's batch prefetch) coexist with the
/// fork-join helpers below: ParallelFor/ParallelForChunks wait on their
/// own private group, not on global pool quiescence, so they return as
/// soon as their own chunks are done.
///
/// A group may be reused for successive waves of tasks after Wait()
/// returns. Thread-safe; Wait() may be called from any non-worker thread.
class TaskGroup {
 public:
  TaskGroup() = default;
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Blocks until every task submitted against this group has completed.
  void Wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [this] { return pending_ == 0; });
  }

  /// Number of tasks submitted against this group that have not finished.
  /// Racy by nature — only useful for monitoring/tests.
  size_t pending() {
    std::unique_lock<std::mutex> lock(mutex_);
    return pending_;
  }

 private:
  friend class ThreadPool;

  void Add() {
    std::unique_lock<std::mutex> lock(mutex_);
    ++pending_;
  }

  void Finish() {
    std::unique_lock<std::mutex> lock(mutex_);
    if (--pending_ == 0) done_.notify_all();
  }

  std::mutex mutex_;
  std::condition_variable done_;
  size_t pending_ = 0;
};

/// A fixed pool of worker threads executing queued tasks.
///
/// Thread-safe. Destruction drains the queue and joins all workers.
/// Largest OPTINTER_THREADS value honored. The pool starts one OS thread
/// per worker, so a larger value (a typo, usually) would exhaust thread
/// ids long before it sped anything up.
inline constexpr size_t kMaxEnvThreads = 1024;

/// Parses an OPTINTER_THREADS value: the whole string must be a decimal
/// integer in [1, kMaxEnvThreads]. Returns 0 for anything else.
size_t ParseThreadsEnv(const char* text);

class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers (>= 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for asynchronous execution. When `group` is non-null
  /// the task is counted against it until completion (see TaskGroup); the
  /// group must outlive the task.
  void Submit(std::function<void()> task, TaskGroup* group = nullptr);

  /// Blocks until all submitted tasks have completed (global quiescence
  /// across every group). Prefer TaskGroup::Wait for fork-join scopes.
  void Wait();

  size_t num_threads() const { return workers_.size(); }

  /// Process-wide default pool. Sized from the OPTINTER_THREADS
  /// environment variable when it parses (ParseThreadsEnv), otherwise the
  /// hardware concurrency.
  static ThreadPool& Global();

  /// Replaces the global pool with one of `num_threads` workers. The old
  /// pool is drained and joined first. Must not be called while parallel
  /// work is in flight (callers of Global() may hold a stale reference).
  /// Intended for determinism tests that re-run the same computation at
  /// several thread counts inside one process.
  static void SetGlobalThreads(size_t num_threads);

  /// True when the calling thread is one of the global pool's workers.
  /// ParallelFor/ParallelForChunks use this to degrade to a serial loop:
  /// a worker that Submit()s and then Wait()s for the pool would deadlock
  /// (Wait blocks until in_flight_ == 0, which includes the waiter's own
  /// task).
  static bool InWorkerThread();

 private:
  /// Queued task plus its enqueue time (zero when obs is disabled), so the
  /// dequeueing worker can report queue-wait latency to the metrics
  /// registry ("pool.queue_wait_us" histogram).
  struct Task {
    std::function<void()> fn;
    TaskGroup* group = nullptr;
    std::chrono::steady_clock::time_point enqueued{};
  };

  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<Task> tasks_;
  std::mutex mutex_;
  std::condition_variable task_available_;
  std::condition_variable all_done_;
  size_t in_flight_ = 0;
  bool shutting_down_ = false;
};

// The fork-join helpers below are templates on the body type: taking a
// std::function parameter would type-erase (and usually heap-allocate) at
// EVERY call site, including the serial and single-thread inline paths —
// which breaks the steady-state zero-allocation contract of the training
// pipeline. Only the actual fan-out pays type erasure, inside Submit.

/// Runs body(chunk_begin, chunk_end) over contiguous chunks in parallel.
/// Blocks until every index has been processed.
///
/// Chunk sizing depends on the pool size, so this is only safe for bodies
/// whose writes are disjoint and whose per-element math does not depend on
/// the chunk boundaries (gathers, elementwise maps, per-row loops). For
/// reductions use FixedChunks below.
template <typename Body>
void ParallelForChunks(size_t begin, size_t end, Body&& body,
                       size_t min_chunk = 256) {
  if (begin >= end) return;
  if (ThreadPool::InWorkerThread()) {
    // Nested parallel region: run serially on this worker (see
    // InWorkerThread for the deadlock rationale).
    body(begin, end);
    return;
  }
  const size_t n = end - begin;
  ThreadPool& pool = ThreadPool::Global();
  if (pool.num_threads() == 1) {
    // One worker would execute everything sequentially anyway; running
    // inline skips the Submit allocations and, crucially, cannot deadlock
    // when the lone worker is busy inside a long-lived task (e.g. a
    // pipeline prefetch).
    body(begin, end);
    return;
  }
  const size_t max_chunks = pool.num_threads() * 4;
  size_t chunk = std::max(min_chunk, (n + max_chunks - 1) / max_chunks);
  if (n <= chunk) {
    body(begin, end);
    return;
  }
  std::atomic<size_t> next{begin};
  const size_t num_tasks =
      std::min(pool.num_threads(), (n + chunk - 1) / chunk);
  TaskGroup group;
  for (size_t t = 0; t < num_tasks; ++t) {
    pool.Submit(
        [&next, end, chunk, &body] {
          for (;;) {
            size_t lo = next.fetch_add(chunk);
            if (lo >= end) return;
            body(lo, std::min(lo + chunk, end));
          }
        },
        &group);
  }
  // Waiting on the group (not the whole pool) keeps this fork-join scope
  // independent of unrelated in-flight work such as pipeline prefetches.
  group.Wait();
}

/// Runs body(i) for i in [begin, end), splitting the range across the pool.
/// Blocks until every index has been processed. Falls back to a serial loop
/// for small ranges (fewer than `grain` items per worker would be wasteful).
template <typename Body>
void ParallelFor(size_t begin, size_t end, Body&& body, size_t grain = 256) {
  ParallelForChunks(
      begin, end,
      [&body](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) body(i);
      },
      grain);
}

// ---------------------------------------------------------------------------
// Deterministic parallel reductions.
// ---------------------------------------------------------------------------

/// A chunk grid over [0, n) whose layout depends ONLY on n and the caller's
/// grain parameters — never on the pool size. Per-chunk partial results
/// reduced in a fixed order (sequential by chunk index, or a fixed-shape
/// tree) are therefore bit-identical at any thread count, including the
/// serial nested-parallelism fallback. This is the determinism contract
/// behind the parallel backward passes (see DESIGN.md).
struct FixedChunks {
  size_t n = 0;
  size_t count = 0;  // number of chunks (>= 1 when n > 0)
  size_t chunk = 0;  // items per chunk (last chunk may be short)

  size_t lo(size_t i) const { return i * chunk; }
  size_t hi(size_t i) const {
    const size_t end = (i + 1) * chunk;
    return end < n ? end : n;
  }
};

/// Builds the fixed grid: count = min(max_chunks, ceil(n / min_chunk)),
/// chunk = ceil(n / count). `max_chunks` bounds the memory spent on
/// per-chunk partial buffers; keep it a small constant at the call site so
/// the grid stays a pure function of n.
FixedChunks MakeFixedChunks(size_t n, size_t min_chunk,
                            size_t max_chunks = 8);

/// Runs body(i) for every chunk index i in [0, count) across the pool
/// (serially when nested inside a pool worker, when count == 1, or on a
/// single-thread pool — inline and in chunk order). The caller owns
/// per-chunk output buffers and reduces them afterwards in a fixed order.
template <typename Body>
void ParallelForEachChunk(const FixedChunks& grid, Body&& body) {
  if (grid.count == 0) return;
  if (grid.count == 1 || ThreadPool::InWorkerThread()) {
    for (size_t i = 0; i < grid.count; ++i) body(i);
    return;
  }
  ThreadPool& pool = ThreadPool::Global();
  if (pool.num_threads() == 1) {
    // Same rationale as ParallelForChunks: inline beats queueing through a
    // single worker, and stays live while that worker runs other tasks.
    for (size_t i = 0; i < grid.count; ++i) body(i);
    return;
  }
  std::atomic<size_t> next{0};
  const size_t num_tasks = std::min(pool.num_threads(), grid.count);
  TaskGroup group;
  for (size_t t = 0; t < num_tasks; ++t) {
    pool.Submit(
        [&next, &grid, &body] {
          for (;;) {
            const size_t i = next.fetch_add(1);
            if (i >= grid.count) return;
            body(i);
          }
        },
        &group);
  }
  group.Wait();
}

}  // namespace optinter

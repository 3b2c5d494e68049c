#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>

#include "common/logging.h"
#include "obs/registry.h"

namespace optinter {

namespace {
thread_local bool t_in_pool_worker = false;

// The global pool, created lazily. Guarded by GlobalPoolMutex(); never
// null after first Global() call. SetGlobalThreads swaps it for tests.
ThreadPool* g_global_pool = nullptr;

std::mutex& GlobalPoolMutex() {
  static std::mutex* m = new std::mutex();
  return *m;
}

size_t DefaultGlobalThreads() {
  if (const char* env = std::getenv("OPTINTER_THREADS")) {
    if (const size_t v = ParseThreadsEnv(env); v != 0) return v;
    LOG_WARNING() << "ignoring OPTINTER_THREADS='" << env
                  << "': not an integer in [1, " << kMaxEnvThreads << "]";
  }
  size_t n = std::thread::hardware_concurrency();
  if (n == 0) n = 4;
  return n;
}

// Registry handles are resolved once; the registry never invalidates them.
obs::Counter* TasksSubmittedCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("pool.tasks_submitted");
  return c;
}

obs::Counter* TasksExecutedCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("pool.tasks_executed");
  return c;
}

obs::Histogram* QueueWaitHistogram() {
  static obs::Histogram* h = obs::MetricsRegistry::Global().GetHistogram(
      "pool.queue_wait_us",
      {1.0, 10.0, 100.0, 1000.0, 10000.0, 100000.0, 1000000.0});
  return h;
}
}  // namespace

size_t ParseThreadsEnv(const char* text) {
  // strtoll saturates out-of-range input, which the bounds then refuse.
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 10);
  const bool whole = end != text && *end == '\0';
  return whole && v >= 1 && v <= static_cast<long long>(kMaxEnvThreads)
             ? static_cast<size_t>(v)
             : 0;
}

ThreadPool::ThreadPool(size_t num_threads) {
  CHECK_GE(num_threads, 1u);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  task_available_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task, TaskGroup* group) {
  const bool observed = obs::Enabled();
  if (group != nullptr) group->Add();
  Task queued{std::move(task), group,
              observed ? std::chrono::steady_clock::now()
                       : std::chrono::steady_clock::time_point{}};
  {
    std::unique_lock<std::mutex> lock(mutex_);
    CHECK(!shutting_down_);
    tasks_.push(std::move(queued));
    ++in_flight_;
  }
  task_available_.notify_one();
  if (observed) TasksSubmittedCounter()->Add(1);
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

bool ThreadPool::InWorkerThread() { return t_in_pool_worker; }

void ThreadPool::WorkerLoop() {
  t_in_pool_worker = true;
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_available_.wait(
          lock, [this] { return shutting_down_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        if (shutting_down_) return;
        continue;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    // A zero enqueue time means obs was disabled at Submit; skip reporting
    // rather than record a bogus multi-decade wait.
    if (task.enqueued != std::chrono::steady_clock::time_point{} &&
        obs::Enabled()) {
      const auto wait_us = std::chrono::duration_cast<std::chrono::microseconds>(
                               std::chrono::steady_clock::now() - task.enqueued)
                               .count();
      QueueWaitHistogram()->Observe(static_cast<double>(wait_us));
      TasksExecutedCounter()->Add(1);
    }
    task.fn();
    if (task.group != nullptr) task.group->Finish();
    {
      std::unique_lock<std::mutex> lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.notify_all();
    }
  }
}

ThreadPool& ThreadPool::Global() {
  std::lock_guard<std::mutex> lock(GlobalPoolMutex());
  if (g_global_pool == nullptr) {
    const size_t n = DefaultGlobalThreads();
    g_global_pool = new ThreadPool(n);
    obs::MetricsRegistry::Global()
        .GetGauge("pool.num_threads")
        ->Set(static_cast<double>(n));
  }
  return *g_global_pool;
}

void ThreadPool::SetGlobalThreads(size_t num_threads) {
  CHECK_GE(num_threads, 1u);
  CHECK(!InWorkerThread());
  std::lock_guard<std::mutex> lock(GlobalPoolMutex());
  if (g_global_pool != nullptr &&
      g_global_pool->num_threads() == num_threads) {
    return;
  }
  delete g_global_pool;  // drains the queue and joins the workers
  g_global_pool = new ThreadPool(num_threads);
  obs::MetricsRegistry::Global()
      .GetGauge("pool.num_threads")
      ->Set(static_cast<double>(num_threads));
}

FixedChunks MakeFixedChunks(size_t n, size_t min_chunk, size_t max_chunks) {
  CHECK_GE(min_chunk, 1u);
  CHECK_GE(max_chunks, 1u);
  FixedChunks grid;
  grid.n = n;
  if (n == 0) return grid;
  grid.count = std::min(max_chunks, (n + min_chunk - 1) / min_chunk);
  grid.chunk = (n + grid.count - 1) / grid.count;
  // ceil rounding can leave the last chunk empty (e.g. n=9, count=8 →
  // chunk=2 covers n in 5 chunks); trim so every chunk is non-empty.
  grid.count = (n + grid.chunk - 1) / grid.chunk;
  return grid;
}

}  // namespace optinter

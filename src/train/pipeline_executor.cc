#include "train/pipeline_executor.h"

#include <chrono>
#include <utility>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace optinter {

namespace {

obs::Counter* StallMicrosCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("pipeline.stall_us");
  return c;
}

obs::Counter* StepsCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("pipeline.steps");
  return c;
}

obs::Counter* WorkspaceGrowthCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "pipeline.workspace_growth_steps");
  return c;
}

obs::Gauge* WorkspaceBytesGauge() {
  static obs::Gauge* g =
      obs::MetricsRegistry::Global().GetGauge("pipeline.workspace_bytes");
  return g;
}

}  // namespace

PipelinedTrainExecutor::PipelinedTrainExecutor(CtrModel* model)
    : model_(model) {
  CHECK(model != nullptr);
}

PipelinedTrainExecutor::EpochStats PipelinedTrainExecutor::RunEpoch(
    BatchSource* source, const std::function<void()>& on_step) {
  EpochStats stats;
  Batch batch = source->Next();
  if (batch.size == 0) return stats;

  ThreadPool& pool = ThreadPool::Global();
  StepWorkspace* cur = &ws_[0];
  StepWorkspace* nxt = &ws_[1];

  // First prepare runs synchronously: there is no batch t-1 to overlap.
  model_->PrepareBatch(batch, &cur->prep);

  for (;;) {
    // Launch batch t+1's prepare before computing batch t. The TaskGroup
    // doubles as the join latch; at most one prefetch is ever in flight.
    TaskGroup prefetch;
    Batch next = source->Next();
    const bool has_next = next.size != 0;
    if (has_next) {
      PreparedBatch* dst = &nxt->prep;
      pool.Submit([this, next, dst] { model_->PrepareBatch(next, dst); },
                  &prefetch);
    }

    float loss;
    {
      OPTINTER_TRACE_SPAN("train_step");
      loss = model_->ForwardBackward(cur->prep);
      model_->ApplyGrads();
    }
    ++steps_done_;
    StepsCounter()->Increment();
    stats.loss_sum += static_cast<double>(loss);
    stats.rows += cur->prep.size;
    ++stats.batches;

    // Join the prefetch. Past this wait nothing the executor started is
    // running, so the on_step hook below observes a quiescent pipeline.
    if (has_next) {
      OPTINTER_TRACE_SPAN("pipeline_stall");
      const bool timed = obs::Enabled();
      const auto t0 = timed ? std::chrono::steady_clock::now()
                            : std::chrono::steady_clock::time_point{};
      prefetch.Wait();
      if (timed) {
        const auto waited = std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - t0);
        StallMicrosCounter()->Add(static_cast<uint64_t>(waited.count()));
      }
    }
    UpdateWorkspaceStats();
    if (on_step) on_step();
    if (!has_next) break;
    std::swap(cur, nxt);
  }
  return stats;
}

void PipelinedTrainExecutor::UpdateWorkspaceStats() {
  if (!obs::Enabled()) return;
  const size_t cap = ws_[0].prep.CapacityBytes() + ws_[1].prep.CapacityBytes();
  WorkspaceBytesGauge()->Set(static_cast<double>(cap));
  // The first two steps size both workspaces (warmup); growth after that
  // means a steady-state step allocated, which the zero-allocation tests
  // treat as a regression.
  if (warmed_up_ && cap > last_capacity_bytes_) {
    WorkspaceGrowthCounter()->Increment();
  }
  if (steps_done_ >= 2) warmed_up_ = true;
  last_capacity_bytes_ = cap;
}

}  // namespace optinter

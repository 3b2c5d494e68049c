// Pipelined training executor: overlaps batch t+1's PrepareBatch (on the
// thread pool) with batch t's ForwardBackward + ApplyGrads (on the calling
// thread). It is the only training schedule: TrainModel,
// TrainModelStreamed and the search stage (joint and bi-level) step every
// epoch through RunEpoch.
//
// Phase protocol (CtrModel, models/model.h): TrainStep is exactly
// PrepareBatch -> ForwardBackward -> ApplyGrads, and PrepareBatch reads
// only the dataset and the batch's row ids. The executor therefore cannot
// change the math: compute (including the search models' Gumbel noise
// stream) runs on the calling thread in batch order, and PrepareBatch is a
// pure function of the dataset and row ids, so an epoch is bit-identical
// to a TrainStep loop over the same batches at any thread count — the
// same determinism contract as the parallel kernels (DESIGN.md); the
// tests keep such loops as the reference. At most one prefetch is in
// flight, and the executor joins it (TaskGroup) before touching the
// prepared buffers, so the handoff is data-race-free in both directions.
//
// Workspaces: two StepWorkspaces ping-pong between "being computed" and
// "being prefetched". All buffers retain capacity across steps and epochs,
// so steady-state steps perform zero heap allocations (tested); the
// "pipeline.workspace_bytes" gauge tracks held capacity and
// "pipeline.workspace_growth_steps" counts post-warmup growth events.
//
// Obs: spans `train_step` (ForwardBackward + ApplyGrads) and
// `pipeline_stall` (waiting on the prefetch), plus the `pipeline.stall_us`
// counter.

#pragma once

#include <cstdint>
#include <functional>

#include "data/batch.h"
#include "models/model.h"
#include "models/prepared_batch.h"

namespace optinter {

/// Reusable per-step buffers. One workspace is being computed while the
/// other receives the prefetched next batch.
struct StepWorkspace {
  PreparedBatch prep;
};

/// Drives one model's training epochs through the three-phase pipeline.
/// Reuse one executor across epochs so workspace capacity persists.
class PipelinedTrainExecutor {
 public:
  /// `model` must outlive the executor.
  explicit PipelinedTrainExecutor(CtrModel* model);

  struct EpochStats {
    double loss_sum = 0.0;
    size_t batches = 0;
    size_t rows = 0;
  };

  /// Runs one epoch over `source` (the caller StartEpoch()s it first);
  /// works with any BatchSource — in-RAM Batcher or StreamingBatcher.
  /// `on_step`, when set, fires after every step at a quiescent point (the
  /// step's prefetch joined, no executor work in flight) — safe for
  /// Tracer::Collect-based periodic reporting and for further model steps
  /// on other batches (bi-level search's ArchStep). Returns with no work in
  /// flight; outstanding Batch views are dropped, so the caller may
  /// StartEpoch() again immediately.
  EpochStats RunEpoch(BatchSource* source,
                      const std::function<void()>& on_step = {});

  /// Completed ApplyGrads count over the executor's lifetime.
  uint64_t steps_done() const { return steps_done_; }

 private:
  void UpdateWorkspaceStats();

  CtrModel* model_;
  StepWorkspace ws_[2];
  uint64_t steps_done_ = 0;
  size_t last_capacity_bytes_ = 0;
  bool warmed_up_ = false;
};

}  // namespace optinter

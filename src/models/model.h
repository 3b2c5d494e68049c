// Abstract CTR model interface.
//
// Every baseline and every OptInter instance implements one protocol.
// Training runs in three phases per batch:
//
//   PrepareBatch -> ForwardBackward -> ApplyGrads
//
// and TrainStep is exactly those three calls on a PreparedBatch the base
// class owns. The pipelined executor (src/train/pipeline_executor.h),
// which runs every training epoch, calls the same phases with batch t+1's
// PrepareBatch overlapping batch t's compute, so a TrainStep loop over
// the same batches trains bit-identically (the tests' reference).
//
// Protocol rule: PrepareBatch reads only the dataset and the batch's row
// ids — never weights or optimizer state. That is what lets the executor
// prepare the next batch while the current one is still being applied.
//
// Prediction is one const call whose per-call state lives in a
// caller-owned ForwardContext; calls with distinct contexts may run
// concurrently while the parameters are quiescent (no concurrent
// training step). See DESIGN.md for the full contract.
//
// Freeze() makes a model immutable for good: serving publishes only
// frozen models (serve::SnapshotSlot::Publish freezes), and a model may
// lay its weights out for inference once at freeze (FixedArchModel packs
// its MLP weights). Training a frozen model CHECK-fails, and loading a
// checkpoint into one is refused (io/serialize.h), so nothing laid out
// at freeze can go stale.

#pragma once

#include <atomic>
#include <mutex>
#include <string>
#include <vector>

#include "common/logging.h"
#include "data/batch.h"
#include "models/forward_context.h"
#include "models/prepared_batch.h"
#include "tensor/tensor.h"

namespace optinter {

/// A trainable CTR predictor.
class CtrModel {
 public:
  virtual ~CtrModel() = default;

  /// Model name as used in the paper's tables ("IPNN", "OptInter-M", ...).
  virtual std::string Name() const = 0;

  /// One optimization step on `batch`; returns the mean batch loss.
  /// CHECK-fails on a frozen model.
  float TrainStep(const Batch& batch) {
    CheckNotFrozen("TrainStep");
    PrepareBatch(batch, &step_prep_);
    const float loss = ForwardBackward(step_prep_);
    ApplyGrads();
    return loss;
  }

  /// Phase 1: fills `prep` from the dataset and row ids of `batch`.
  virtual void PrepareBatch(const Batch& batch, PreparedBatch* prep) const = 0;

  /// Phase 2: forward + loss + backward from a prepared batch; returns
  /// the mean batch loss. Gradients are left accumulated for ApplyGrads.
  virtual float ForwardBackward(const PreparedBatch& prep) = 0;

  /// Phase 3: applies the accumulated gradients and clears them.
  virtual void ApplyGrads() = 0;

  /// Predicted probabilities for the rows of `batch` (no grads). All
  /// per-call state lives in `ctx`.
  virtual void Predict(const Batch& batch, std::vector<float>* probs,
                       ForwardContext* ctx) const = 0;

  /// Total trainable parameters (the paper's "Param." column).
  virtual size_t ParamCount() const = 0;

  /// Appends non-owning pointers to every trainable value tensor, enabling
  /// best-checkpoint snapshot/restore in the trainer. Models that return
  /// nothing simply don't participate in checkpointing.
  virtual void CollectState(std::vector<Tensor*>* out) { (void)out; }

  /// Marks the model immutable, first running OnFreeze. Idempotent and
  /// thread-safe: concurrent and repeated calls run OnFreeze once, and
  /// every call returns after it has finished.
  void Freeze() const {
    std::call_once(freeze_once_, [this] {
      OnFreeze();
      frozen_.store(true, std::memory_order_release);
    });
  }

  bool frozen() const { return frozen_.load(std::memory_order_acquire); }

  /// CHECK-fails, naming `what` and the model, when the model is frozen.
  void CheckNotFrozen(const char* what) const {
    CHECK(!frozen()) << what << " on frozen model " << Name()
                     << ": a published model is immutable; train a fresh "
                        "instance and publish that";
  }

 protected:
  /// Freeze's one-time hook: lays out weights for inference. Runs before
  /// the model reads as frozen; must leave Predict's bits unchanged.
  virtual void OnFreeze() const {}

  /// The prepared batch TrainStep fills. Models with an extra step of
  /// their own (SearchModel::ArchStep) prepare into it the same way.
  PreparedBatch* step_prep() { return &step_prep_; }

 private:
  PreparedBatch step_prep_;
  mutable std::once_flag freeze_once_;
  mutable std::atomic<bool> frozen_{false};
};

}  // namespace optinter

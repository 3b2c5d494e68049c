// Model hot-swap for the serving layer.
//
// The live model is published as an immutable ModelSnapshot behind a
// mutex-guarded shared_ptr (RCU idiom): readers Acquire() a
// reference-counted pointer, predict against it, and drop it; a swap
// exchanges the pointer to a fully-built replacement. The mutex covers
// only that pointer copy or exchange — never a prediction, a model build
// or a generation's destruction — so readers and swaps hold it for a few
// nanoseconds. The two generations are double-buffered: the outgoing
// snapshot stays alive (and keeps serving its in-flight requests) until
// the last reader releases it, so every request sees one whole
// snapshot's weights: no torn reads, no pause.
//
// (A mutex rather than std::atomic<std::shared_ptr>: ThreadSanitizer
// cannot see the internal lock of libstdc++ 12's implementation and
// reports Publish vs Acquire as a data race; a standing false alarm
// would mask real ones.)
//
// Swap safety rules:
//  * A snapshot's model is NEVER mutated after Publish, and Publish
//    enforces it: it freezes the model (CtrModel::Freeze) before the
//    exchange, so training it CHECK-fails and LoadModel into it is
//    refused. Freezing is also when a model lays its weights out for
//    inference (FixedArchModel packs its MLP weights once), so that cost
//    lands in the swap, not in a request. Hot-swapping a retrained
//    checkpoint means building a FRESH model instance, loading the
//    checkpoint into it (io/serialize validates the byte stream before
//    touching any weight), and publishing that instance.
//  * Every CtrModel's Predict is const and keeps its per-call state in a
//    caller-owned ForwardContext, so any published model can serve
//    concurrent requests.
//  * The model's backing objects (the EncodedDataset it was constructed
//    against) must outlive the snapshot; bundle them into the deleter or
//    keep them process-lifetime, as the examples do.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "common/status.h"
#include "models/model.h"
#include "nn/quant_embedding.h"

namespace optinter {
namespace serve {

/// One immutable published model generation.
struct ModelSnapshot {
  std::shared_ptr<const CtrModel> model;
  /// Monotonic generation id (1 = first Publish).
  uint64_t version = 0;
};

/// Publication slot for the live snapshot.
///
/// Thread-safe: any number of Acquire()ing readers may run concurrently
/// with Publish. Both take the slot's mutex only to copy or exchange the
/// pointer; the outgoing generation is released after the lock is
/// dropped, so destroying a model never stalls a reader.
class SnapshotSlot {
 public:
  /// Freezes `model` (outside the slot's mutex; a no-op when it is
  /// already frozen) and publishes it as the new live snapshot, replacing
  /// any previous one. Fails (leaving the previous snapshot live) when
  /// `model` is null. Publish is the one way a model reaches serving:
  /// Deploy, DeployCheckpoint/SwapFromCheckpoint and quantized views all
  /// go through it.
  Status Publish(std::shared_ptr<const CtrModel> model);

  /// The current snapshot, pinned for the caller's lifetime of the
  /// returned pointer; nullptr before the first Publish.
  std::shared_ptr<const ModelSnapshot> Acquire() const {
    std::lock_guard<std::mutex> lock(mu_);
    return current_;
  }

  /// Generation id of the live snapshot (0 before the first Publish).
  uint64_t version() const {
    auto snap = Acquire();
    return snap ? snap->version : 0;
  }

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const ModelSnapshot> current_;  // guarded by mu_
  uint64_t generations_ = 0;                       // guarded by mu_
};

/// Builds a fresh model via `factory`, restores `checkpoint_path` into it
/// (full-file validation first — a truncated or mismatched checkpoint is
/// rejected without publishing), and publishes it into `slot`. The
/// previous snapshot keeps serving until its last in-flight request
/// completes. On any failure the slot is untouched and the old model
/// stays live.
Status SwapFromCheckpoint(
    SnapshotSlot* slot,
    const std::function<std::unique_ptr<CtrModel>()>& factory,
    const std::string& checkpoint_path);

/// One-shot conversion of a trained FixedArchModel into an inference-only
/// quantized view (serve/quantized_model.h): int8 or bf16 embedding
/// tables in front of `model`'s own fp32 MLP. The returned model can be
/// Publish()ed into a SnapshotSlot like any other generation; `model` is
/// retained inside it so the reused fp32 layers stay alive, and
/// publishing the view also freezes `model`. Fails, without touching
/// `out`, when `model` is not a FixedArchModel or when any value of a
/// table it would quantize is non-finite (the status names the table and
/// its backing row).
Status QuantizeSnapshot(std::shared_ptr<const CtrModel> model,
                        QuantMode mode,
                        std::shared_ptr<const CtrModel>* out);

}  // namespace serve
}  // namespace optinter

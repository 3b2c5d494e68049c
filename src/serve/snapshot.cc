#include "serve/snapshot.h"

#include <cmath>
#include <string>
#include <utility>

#include "io/serialize.h"
#include "obs/registry.h"
#include "serve/quantized_model.h"

namespace optinter {
namespace serve {

namespace {
obs::Counter* SwapCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("serve.swaps");
  return c;
}

// Refuses a table holding a NaN or Inf: quantizing it would hand the
// view finite garbage (int8 scales) or silently changed values.
Status RequireFinite(const EmbeddingTable& table) {
  const float* values = table.values().data();
  for (size_t r = 0; r < table.BackingRows(); ++r) {
    for (size_t t = 0; t < table.dim(); ++t) {
      const float v = values[r * table.dim() + t];
      if (!std::isfinite(v)) {
        return Status::Invalid("cannot quantize embedding table '" +
                               table.name() + "': backing row " +
                               std::to_string(r) + " holds " +
                               std::to_string(v));
      }
    }
  }
  return Status::OK();
}

}  // namespace

Status SnapshotSlot::Publish(std::shared_ptr<const CtrModel> model) {
  if (model == nullptr) {
    return Status::Invalid("cannot publish a null model");
  }
  // Freeze before the exchange and outside the lock: a generation is
  // immutable from its first reader on, and its one-time inference layout
  // (packed MLP weights) is built here instead of in a request. Re-
  // publishing a model that is already frozen costs nothing.
  model->Freeze();
  auto snap = std::make_shared<ModelSnapshot>();
  snap->model = std::move(model);
  std::shared_ptr<const ModelSnapshot> old;
  {
    // The mutex orders the exchange after every write that built the
    // model, so a reader that acquires the new pointer sees the fully
    // constructed snapshot; versions are assigned in publication order.
    std::lock_guard<std::mutex> lock(mu_);
    snap->version = ++generations_;
    old = std::exchange(current_, std::move(snap));
  }
  // `old` drops here, outside the lock: when no request still holds the
  // outgoing generation it is destroyed on this thread, not under mu_.
  old.reset();
  SwapCounter()->Increment();
  return Status::OK();
}

Status SwapFromCheckpoint(
    SnapshotSlot* slot,
    const std::function<std::unique_ptr<CtrModel>()>& factory,
    const std::string& checkpoint_path) {
  CHECK(slot != nullptr);
  CHECK(factory != nullptr);
  std::shared_ptr<CtrModel> fresh{factory()};
  if (fresh == nullptr) {
    return Status::Invalid("model factory returned null");
  }
  // Load into the fresh (unpublished) buffer; the live snapshot is never
  // written to. LoadModel validates the whole checkpoint before writing
  // any tensor, so a bad file cannot leave `fresh` half-initialized
  // either — it is simply discarded.
  Status st = LoadModel(fresh.get(), checkpoint_path);
  if (!st.ok()) return st;
  return slot->Publish(std::move(fresh));
}

Status QuantizeSnapshot(std::shared_ptr<const CtrModel> model,
                        QuantMode mode,
                        std::shared_ptr<const CtrModel>* out) {
  CHECK(out != nullptr);
  if (model == nullptr) {
    return Status::Invalid("cannot quantize a null model");
  }
  const auto* fixed = dynamic_cast<const FixedArchModel*>(model.get());
  if (fixed == nullptr) {
    return Status::Invalid(
        model->Name() +
        " cannot be quantized: QuantizeSnapshot supports FixedArchModel "
        "(the re-train-stage / serving model family) only");
  }
  for (const EmbeddingTable* table : QuantizedSourceTables(*fixed)) {
    OPTINTER_RETURN_NOT_OK(RequireFinite(*table));
  }
  *out = std::make_shared<QuantizedFixedArchModel>(std::move(model), *fixed,
                                                   mode);
  return Status::OK();
}

}  // namespace serve
}  // namespace optinter

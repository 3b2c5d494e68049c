#include "serve/quantized_model.h"

#include "nn/layers.h"
#include "obs/trace.h"

namespace optinter {
namespace serve {

QuantizedFixedArchModel::QuantizedFixedArchModel(
    std::shared_ptr<const CtrModel> source, const FixedArchModel& fp32,
    QuantMode mode)
    : source_(std::move(source)),
      fp32_(fp32),
      mode_(mode),
      name_(fp32.Name() + "-" + QuantModeName(mode)) {
  const std::vector<const EmbeddingTable*> sources =
      QuantizedSourceTables(fp32);
  tables_.reserve(sources.size());
  for (const EmbeddingTable* table : sources) {
    tables_.emplace_back(*table, mode_);
  }
}

void QuantizedFixedArchModel::OnFreeze() const {
  // The view runs the source's fp32 MLP, so publishing it publishes that
  // MLP too: freeze the source, which packs its weights.
  fp32_.Freeze();
}

void QuantizedFixedArchModel::FailInferenceOnly() const {
  CHECK(false) << name_ << " is inference-only; retrain the fp32 model and "
                           "re-quantize";
}

void QuantizedFixedArchModel::PrepareBatch(const Batch& batch,
                                           PreparedBatch* prep) const {
  (void)batch;
  (void)prep;
  FailInferenceOnly();
}

float QuantizedFixedArchModel::ForwardBackward(const PreparedBatch& prep) {
  (void)prep;
  FailInferenceOnly();
  return 0.0f;
}

void QuantizedFixedArchModel::ApplyGrads() { FailInferenceOnly(); }

struct QuantizedFixedArchModel::DequantTables {
  const QuantizedFixedArchModel& m;

  void Row(size_t t, const EmbeddingTable&, int32_t id, float* dst) const {
    m.tables_[t].DequantRow(id, dst);
  }
};

void QuantizedFixedArchModel::Predict(const Batch& batch,
                                      std::vector<float>* probs,
                                      ForwardContext* ctx) const {
  OPTINTER_TRACE_SPAN("quantized_predict");
  const size_t b = batch.size;
  {
    OPTINTER_TRACE_SPAN("gather_assemble");
    AssembleRows(fp32_.layout(),
                 TableRows(batch, fp32_.feature_embedding(),
                           fp32_.cross_embedding(), fp32_.triple_embedding(),
                           DequantTables{*this}),
                 b, &ctx->z);
  }
  fp32_.MlpLogits(ctx);
  probs->resize(b);
  SigmoidForward(ctx->logits.data(), b, probs->data());
}

size_t QuantizedFixedArchModel::EmbeddingBytes() const {
  // Backing rows, not logical vocab: QR/tiered sources stay compressed
  // through the snapshot, and StorageBytes counts the tiered remap too.
  size_t total = 0;
  for (const QuantizedTable& t : tables_) total += t.StorageBytes();
  return total;
}

size_t QuantizedFixedArchModel::Fp32EmbeddingBytes() const {
  // The fp32 footprint the snapshot replaced: same backing layout at
  // 4 bytes/value (the backend compression is credited separately by
  // comparing against dense layouts in bench/embedding_tradeoff.cc).
  size_t total = 0;
  for (const QuantizedTable& t : tables_) {
    total += t.backing_rows() * t.dim() * sizeof(float);
  }
  return total;
}

std::vector<const EmbeddingTable*> QuantizedSourceTables(
    const FixedArchModel& fp32) {
  std::vector<const EmbeddingTable*> tables;
  const FeatureEmbedding& emb = fp32.feature_embedding();
  for (size_t f = 0; f < emb.num_categorical(); ++f) {
    tables.push_back(&emb.cat_table(f));
  }
  for (const CrossEmbedding* layer :
       {fp32.cross_embedding(), fp32.triple_embedding()}) {
    if (layer == nullptr) continue;
    for (size_t t = 0; t < layer->num_blocks(); ++t) {
      tables.push_back(&layer->table(t));
    }
  }
  return tables;
}

}  // namespace serve
}  // namespace optinter

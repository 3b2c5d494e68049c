#include "serve/quantized_model.h"

#include "nn/layers.h"
#include "obs/trace.h"
#include "tensor/int8.h"

namespace optinter {
namespace serve {

QuantizedFixedArchModel::QuantizedFixedArchModel(
    std::shared_ptr<const CtrModel> source, const FixedArchModel& fp32,
    QuantMode mode)
    : source_(std::move(source)),
      fp32_(fp32),
      mode_(mode),
      name_(fp32.Name() + "-" + QuantModeName(mode)) {
  const FeatureEmbedding& emb = fp32.feature_embedding();
  cat_tables_.reserve(emb.num_categorical());
  for (size_t f = 0; f < emb.num_categorical(); ++f) {
    cat_tables_.emplace_back(emb.cat_table(f), mode_);
  }
  const auto quantize_cross = [&](const CrossEmbedding* layer,
                                  std::vector<QuantizedTable>* tables) {
    if (layer == nullptr) return;
    tables->reserve(layer->num_blocks());
    for (size_t t = 0; t < layer->num_blocks(); ++t) {
      tables->emplace_back(layer->table(t), mode_);
    }
  };
  quantize_cross(fp32.cross_embedding(), &cross_tables_);
  quantize_cross(fp32.triple_embedding(), &triple_tables_);
  if (mode_ == QuantMode::kInt8) {
    const Mlp& mlp = fp32.mlp();
    qlinears_.reserve(mlp.linears().size());
    for (const Linear& lin : mlp.linears()) {
      QuantLinear q;
      q.in = lin.in_dim();
      q.out = lin.out_dim();
      q.qw.resize(q.out * q.in);
      q.w_scale.resize(q.out);
      q.w_rowsum.resize(q.out);
      QuantizeWeightsPerRow(lin.weight.value.data(), q.out, q.in,
                            q.qw.data(), q.w_scale.data(),
                            q.w_rowsum.data());
      q.bias.assign(lin.bias.value.data(),
                    lin.bias.value.data() + lin.bias.value.size());
      qlinears_.push_back(std::move(q));
    }
  }
}

void QuantizedFixedArchModel::OnFreeze() const {
  // bf16 runs the source's fp32 MLP, so publishing this view publishes
  // that MLP too: freeze the source, which packs its weights. The int8
  // MLP has its own quantized weights and packs nothing.
  if (mode_ == QuantMode::kBf16) fp32_.Freeze();
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

  void Cat(size_t f, int32_t id, float* dst) const {
    m.cat_tables_[f].DequantRow(id, dst);
  }
  void Pair(size_t slot, int32_t id, float* dst) const {
    m.cross_tables_[slot].DequantRow(id, dst);
  }
  void Triple(size_t t, int32_t id, float* dst) const {
    m.triple_tables_[t].DequantRow(id, dst);
  }
};

void QuantizedFixedArchModel::QuantLinearForward(const QuantLinear& layer,
                                                 const Tensor& x, Tensor* y,
                                                 QuantScratch* qs) const {
  const size_t m = x.rows();
  const size_t k = x.cols();
  CHECK_EQ(k, layer.in);
  qs->qa.resize(m * k);
  qs->a_scale.resize(m);
  qs->a_zp.resize(m);
  QuantizeActivationRows(x.data(), m, k, qs->qa.data(), qs->a_scale.data(),
                         qs->a_zp.data());
  y->Resize({m, layer.out});
  Int8GemmNT(qs->qa.data(), qs->a_scale.data(), qs->a_zp.data(),
             layer.qw.data(), layer.w_scale.data(), layer.w_rowsum.data(),
             layer.bias.data(), y->data(), m, k, layer.out);
}

void QuantizedFixedArchModel::MlpForwardInt8(const Tensor& z, Tensor* y,
                                             ForwardContext* ctx) const {
  OPTINTER_TRACE_SPAN("mlp_forward_int8");
  // The fp32 tower's layer loop and ReLU/LayerNorm stages with the int8
  // GEMM as the affine step.
  fp32_.mlp().ForwardWith(
      z, y, &ctx->mlp, [&](size_t li, const Tensor& in, Tensor* out) {
        QuantLinearForward(qlinears_[li], in, out, &ctx->quant);
      });
}

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
  if (mode_ == QuantMode::kInt8) {
    MlpForwardInt8(ctx->z, &ctx->mlp_out, ctx);
  } else {
    fp32_.MlpForward(ctx->z, &ctx->mlp_out, &ctx->mlp);
  }
  ctx->logits.resize(b);
  for (size_t k = 0; k < b; ++k) ctx->logits[k] = ctx->mlp_out.at(k, 0);
  probs->resize(b);
  SigmoidForward(ctx->logits.data(), b, probs->data());
}

template <typename Fn>
size_t QuantizedFixedArchModel::SumOverTables(Fn per_table) const {
  size_t total = 0;
  for (const auto* group : {&cat_tables_, &cross_tables_, &triple_tables_}) {
    for (const QuantizedTable& t : *group) total += per_table(t);
  }
  return total;
}

size_t QuantizedFixedArchModel::EmbeddingBytes() const {
  // Backing rows, not logical vocab: QR/tiered sources stay compressed
  // through the snapshot, and StorageBytes counts the tiered remap too.
  return SumOverTables(
      [](const QuantizedTable& t) { return t.StorageBytes(); });
}

size_t QuantizedFixedArchModel::Fp32EmbeddingBytes() const {
  // The fp32 footprint the snapshot replaced: same backing layout at
  // 4 bytes/value (the backend compression is credited separately by
  // comparing against dense layouts in bench/embedding_tradeoff.cc).
  return SumOverTables([](const QuantizedTable& t) {
    return t.backing_rows() * t.dim() * sizeof(float);
  });
}

size_t QuantizedFixedArchModel::EmbeddingRows() const {
  return SumOverTables(
      [](const QuantizedTable& t) { return t.backing_rows(); });
}

}  // namespace serve
}  // namespace optinter

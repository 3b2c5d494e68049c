#include "serve/quantized_model.h"

#include <cstring>

#include "models/interaction.h"
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
      name_(fp32.Name() + "-" + QuantModeName(mode)),
      s1_(fp32.s1()),
      s2_(fp32.s2()),
      inter_dim_(fp32.inter_dim()),
      emb_cols_(fp32.feature_embedding().output_dim()),
      arch_(fp32.arch()),
      pair_fns_(fp32.pair_fns()),
      cat_pairs_(fp32.cat_pairs()),
      block_offset_(fp32.block_offsets()),
      mem_slot_(fp32.mem_slots()) {
  const FeatureEmbedding& emb = fp32.feature_embedding();
  cat_tables_.reserve(emb.num_categorical());
  for (size_t f = 0; f < emb.num_categorical(); ++f) {
    cat_tables_.emplace_back(emb.cat_table(f), mode_);
  }
  // Continuous tables are a single fp32 row each — nothing to compress,
  // and keeping them exact means the continuous path loses no precision.
  cont_rows_.resize(emb.num_continuous());
  for (size_t f = 0; f < emb.num_continuous(); ++f) {
    const float* row = emb.cont_table(f).Row(0);
    cont_rows_[f].assign(row, row + s1_);
  }
  const auto quantize_cross = [&](const CrossEmbedding* layer,
                                  std::vector<size_t>* columns,
                                  std::vector<QuantizedTable>* tables) {
    if (layer == nullptr) return;
    *columns = layer->columns();
    tables->reserve(layer->num_blocks());
    for (size_t t = 0; t < layer->num_blocks(); ++t) {
      tables->emplace_back(layer->table(t), mode_);
    }
  };
  quantize_cross(fp32.cross_embedding(), &cross_pairs_, &cross_tables_);
  quantize_cross(fp32.triple_embedding(), &triple_cols_, &triple_tables_);
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

void QuantizedFixedArchModel::GatherAssembleRow(const EncodedDataset& data,
                                                size_t row,
                                                float* zr) const {
  OPTINTER_TRACE_SPAN("gather_assemble");
  const size_t num_cat = cat_tables_.size();
  for (size_t f = 0; f < num_cat; ++f) {
    cat_tables_[f].DequantRow(data.cat(row, f), zr + f * s1_);
  }
  for (size_t f = 0; f < cont_rows_.size(); ++f) {
    const float v = data.cont(row, f);
    const float* src = cont_rows_[f].data();
    float* d = zr + (num_cat + f) * s1_;
    for (size_t t = 0; t < s1_; ++t) d[t] = src[t] * v;
  }
  for (size_t p = 0; p < arch_.size(); ++p) {
    switch (arch_[p]) {
      case InterMethod::kMemorize: {
        const size_t slot = mem_slot_[p];
        cross_tables_[slot].DequantRow(data.cross(row, cross_pairs_[slot]),
                                       zr + emb_cols_ + block_offset_[p]);
        break;
      }
      case InterMethod::kFactorize: {
        // Interactions run in fp32 over the DEQUANTIZED embeddings, so
        // they match what the MLP sees — same contract as the fp32 fused
        // path (interaction inputs == z's embedding columns).
        const auto [i, j] = cat_pairs_[p];
        FactorizedForward(pair_fns_[p], s1_, zr + i * s1_, zr + j * s1_,
                          zr + emb_cols_ + block_offset_[p]);
        break;
      }
      case InterMethod::kNaive:
        break;
    }
  }
  if (!triple_tables_.empty()) {
    const CrossIds ids = CrossIdsOf(data, CrossKind::kTriple);
    float* dst =
        zr + emb_cols_ + inter_dim_ - triple_tables_.size() * s2_;
    for (size_t t = 0; t < triple_tables_.size(); ++t) {
      triple_tables_[t].DequantRow(ids.at(row, triple_cols_[t]),
                                   dst + t * s2_);
    }
  }
}

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
  const EncodedDataset& data = *batch.data;
  const size_t b = batch.size;
  Tensor& z = ctx->z;
  z.Resize({b, emb_cols_ + inter_dim_});
  for (size_t k = 0; k < b; ++k) {
    GatherAssembleRow(data, batch.rows[k], z.row(k));
  }
  if (mode_ == QuantMode::kInt8) {
    MlpForwardInt8(z, &ctx->mlp_out, ctx);
  } else {
    fp32_.MlpForward(z, &ctx->mlp_out, &ctx->mlp);
  }
  ctx->logits.resize(b);
  for (size_t k = 0; k < b; ++k) ctx->logits[k] = ctx->mlp_out.at(k, 0);
  probs->resize(b);
  SigmoidForward(ctx->logits.data(), b, probs->data());
}

size_t QuantizedFixedArchModel::EmbeddingBytes() const {
  // Backing rows, not logical vocab: QR/tiered sources stay compressed
  // through the snapshot, and StorageBytes counts the tiered remap too.
  size_t total = 0;
  for (const auto& t : cat_tables_) total += t.StorageBytes();
  for (const auto& t : cross_tables_) total += t.StorageBytes();
  for (const auto& t : triple_tables_) total += t.StorageBytes();
  return total;
}

size_t QuantizedFixedArchModel::Fp32EmbeddingBytes() const {
  // The fp32 footprint the snapshot replaced: same backing layout at
  // 4 bytes/value (the backend compression is credited separately by
  // comparing against dense layouts in bench/embedding_tradeoff.cc).
  size_t total = 0;
  for (const auto& t : cat_tables_) {
    total += t.backing_rows() * t.dim() * sizeof(float);
  }
  for (const auto& t : cross_tables_) {
    total += t.backing_rows() * t.dim() * sizeof(float);
  }
  for (const auto& t : triple_tables_) {
    total += t.backing_rows() * t.dim() * sizeof(float);
  }
  return total;
}

size_t QuantizedFixedArchModel::EmbeddingRows() const {
  size_t rows = 0;
  for (const auto& t : cat_tables_) rows += t.backing_rows();
  for (const auto& t : cross_tables_) rows += t.backing_rows();
  for (const auto& t : triple_tables_) rows += t.backing_rows();
  return rows;
}

}  // namespace serve
}  // namespace optinter

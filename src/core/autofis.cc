#include "core/autofis.h"

#include <cstring>

#include "nn/layers.h"
#include "tensor/kernels.h"

namespace optinter {

AutoFisSearchModel::AutoFisSearchModel(const EncodedDataset& data,
                                       const HyperParams& hp)
    : data_(data),
      s1_(hp.embed_dim),
      rng_(hp.seed),
      emb_(data, hp.embed_dim, hp.lr_orig, hp.l2_orig, &rng_,
           hp.orig_backend),
      gate_opt_(hp.grda) {
  cat_pairs_ = EnumeratePairs(data.num_categorical());
  gates_.name = "autofis/gates";
  gates_.Resize({data.num_pairs()});
  // All interactions start switched on, small enough that the GRDA
  // threshold can overtake unsupported gates within our training budget.
  gates_.value.Fill(0.1f);
  gates_.lr = hp.lr_gate;
  gate_opt_.AddParam(&gates_);

  MlpConfig cfg;
  cfg.hidden = hp.mlp_hidden;
  cfg.out_dim = 1;
  cfg.layer_norm = hp.layer_norm;
  cfg.lr = hp.lr_orig;
  cfg.l2 = hp.l2_orig;
  mlp_ = std::make_unique<Mlp>(
      "mlp", emb_.output_dim() + data.num_pairs() * s1_, cfg, &rng_);
  mlp_->RegisterParams(&theta_opt_);
}

void AutoFisSearchModel::Forward(ForwardContext* ctx) const {
  const Tensor& emb_out = ctx->emb_out;
  const size_t b = emb_out.rows();
  const size_t emb_cols = emb_out.cols();
  const size_t num_pairs = data_.num_pairs();
  Tensor& z = ctx->z;
  z.Resize({b, emb_cols + num_pairs * s1_});
  const float* g = gates_.value.data();
  for (size_t k = 0; k < b; ++k) {
    float* zr = z.row(k);
    std::memcpy(zr, emb_out.row(k), emb_cols * sizeof(float));
    const float* e = emb_out.row(k);
    for (size_t p = 0; p < num_pairs; ++p) {
      const auto [i, j] = cat_pairs_[p];
      const float* ei = e + i * s1_;
      const float* ej = e + j * s1_;
      float* block = zr + emb_cols + p * s1_;
      for (size_t t = 0; t < s1_; ++t) block[t] = g[p] * ei[t] * ej[t];
    }
  }
  mlp_->Forward(z, &ctx->mlp_out, &ctx->mlp);
  ctx->logits.resize(b);
  for (size_t k = 0; k < b; ++k) ctx->logits[k] = ctx->mlp_out.at(k, 0);
}

void AutoFisSearchModel::PrepareBatch(const Batch& batch,
                                      PreparedBatch* prep) const {
  prep->BeginFill(batch);
  emb_.Prepare(batch, prep);
}

float AutoFisSearchModel::ForwardBackward(const PreparedBatch& prep) {
  emb_.ForwardPrepared(prep, prep.cat, &ctx_.emb_out);
  Forward(&ctx_);
  const size_t b = prep.size;
  dlogits_.resize(b);
  const float loss = BceWithLogitsLoss(ctx_.logits.data(), prep.labels.data(),
                                       b, dlogits_.data());

  dmlp_out_.Resize({b, 1});
  for (size_t k = 0; k < b; ++k) dmlp_out_.at(k, 0) = dlogits_[k];
  mlp_->Backward(dmlp_out_, &dz_, &ctx_.mlp);

  const size_t emb_cols = ctx_.emb_out.cols();
  const size_t num_pairs = data_.num_pairs();
  demb_.Resize({b, emb_cols});
  const float* g = gates_.value.data();
  float* dg = gates_.grad.data();
  for (size_t k = 0; k < b; ++k) {
    const float* dzr = dz_.row(k);
    std::memcpy(demb_.row(k), dzr, emb_cols * sizeof(float));
    const float* e = ctx_.emb_out.row(k);
    float* de = demb_.row(k);
    for (size_t p = 0; p < num_pairs; ++p) {
      const auto [i, j] = cat_pairs_[p];
      const float* ei = e + i * s1_;
      const float* ej = e + j * s1_;
      float* dei = de + i * s1_;
      float* dej = de + j * s1_;
      const float* dblock = dzr + emb_cols + p * s1_;
      double dgp = 0.0;
      for (size_t t = 0; t < s1_; ++t) {
        const float had = ei[t] * ej[t];
        dgp += static_cast<double>(dblock[t]) * had;
        dei[t] += g[p] * dblock[t] * ej[t];
        dej[t] += g[p] * dblock[t] * ei[t];
      }
      dg[p] += static_cast<float>(dgp);
    }
  }
  emb_.BackwardPrepared(demb_, prep, prep.cat);
  return loss;
}

void AutoFisSearchModel::ApplyGrads() {
  emb_.StepPrepared();
  theta_opt_.Step();
  theta_opt_.ZeroGrad();
  gate_opt_.Step();
  gate_opt_.ZeroGrad();
}

void AutoFisSearchModel::Predict(const Batch& batch, std::vector<float>* probs,
                                 ForwardContext* ctx) const {
  emb_.Gather(batch, &ctx->emb_out);
  Forward(ctx);
  probs->resize(batch.size);
  SigmoidForward(ctx->logits.data(), batch.size, probs->data());
}

void AutoFisSearchModel::CollectState(std::vector<Tensor*>* out) {
  emb_.CollectState(out);
  for (DenseParam* p : theta_opt_.params()) out->push_back(&p->value);
  out->push_back(&gates_.value);
}

size_t AutoFisSearchModel::ParamCount() const {
  return emb_.ParamCount() + mlp_->ParamCount() + gates_.size();
}

Architecture AutoFisSearchModel::ExtractArchitecture() const {
  Architecture arch(data_.num_pairs(), InterMethod::kNaive);
  for (size_t p = 0; p < data_.num_pairs(); ++p) {
    if (gates_.value[p] != 0.0f) arch[p] = InterMethod::kFactorize;
  }
  return arch;
}

}  // namespace optinter

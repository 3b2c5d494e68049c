#include "models/deep_models.h"

#include <cstring>

#include "nn/layers.h"
#include "tensor/kernels.h"

namespace optinter {

DeepBaselineModel::DeepBaselineModel(const EncodedDataset& data,
                                     const HyperParams& hp,
                                     DeepVariant variant)
    : variant_(variant),
      dim_(hp.embed_dim),
      rng_(hp.seed),
      emb_(data, hp.embed_dim, hp.lr_orig, hp.l2_orig, &rng_,
           hp.orig_backend) {
  num_fields_ = emb_.num_fields();
  num_pairs_ = num_fields_ * (num_fields_ - 1) / 2;
  for (size_t i = 0; i < num_fields_; ++i) {
    for (size_t j = i + 1; j < num_fields_; ++j) {
      field_pairs_.emplace_back(i, j);
    }
  }

  size_t mlp_in = emb_.output_dim();
  switch (variant_) {
    case DeepVariant::kIpnn:
      mlp_in += num_pairs_;
      break;
    case DeepVariant::kOpnn: {
      mlp_in += num_pairs_;
      kernels_.name = "opnn/kernels";
      kernels_.Resize({num_pairs_, dim_ * dim_});
      for (size_t p = 0; p < num_pairs_; ++p) {
        float* w = kernels_.value.row(p);
        for (size_t t = 0; t < dim_; ++t) w[t * dim_ + t] = 1.0f;
      }
      kernels_.lr = hp.lr_orig;
      kernels_.l2 = hp.l2_orig;
      dense_opt_.AddParam(&kernels_);
      break;
    }
    case DeepVariant::kDeepFm: {
      linear_ = std::make_unique<FeatureEmbedding>(data, 1, hp.lr_orig,
                                                   hp.l2_orig, &rng_);
      fm_bias_.name = "deepfm/bias";
      fm_bias_.Resize({1});
      fm_bias_.lr = hp.lr_orig;
      dense_opt_.AddParam(&fm_bias_);
      break;
    }
    case DeepVariant::kPin: {
      mlp_in += num_pairs_ * kPinSubnetOut;
      MlpConfig sub;
      sub.hidden = {kPinSubnetHidden};
      sub.out_dim = kPinSubnetOut;
      sub.layer_norm = false;
      sub.lr = hp.lr_orig;
      sub.l2 = hp.l2_orig;
      subnets_.reserve(num_pairs_);
      for (size_t p = 0; p < num_pairs_; ++p) {
        subnets_.push_back(std::make_unique<Mlp>(
            "pin/sub" + std::to_string(p), 3 * dim_, sub, &rng_));
        subnets_.back()->RegisterParams(&dense_opt_);
      }
      break;
    }
  }

  MlpConfig cfg;
  cfg.hidden = hp.mlp_hidden;
  cfg.out_dim = 1;
  cfg.layer_norm = hp.layer_norm;
  cfg.lr = hp.lr_orig;
  cfg.l2 = hp.l2_orig;
  mlp_ = std::make_unique<Mlp>("mlp", mlp_in, cfg, &rng_);
  mlp_->RegisterParams(&dense_opt_);
}

std::string DeepBaselineModel::Name() const {
  switch (variant_) {
    case DeepVariant::kIpnn:
      return "IPNN";
    case DeepVariant::kOpnn:
      return "OPNN";
    case DeepVariant::kDeepFm:
      return "DeepFM";
    case DeepVariant::kPin:
      return "PIN";
  }
  return "Deep?";
}

void DeepBaselineModel::Forward(ForwardContext* ctx) const {
  const Tensor& emb_out = ctx->emb_out;
  const size_t b = emb_out.rows();
  const size_t d = dim_;
  const size_t emb_cols = emb_out.cols();

  size_t extra = 0;
  if (variant_ == DeepVariant::kIpnn || variant_ == DeepVariant::kOpnn) {
    extra = num_pairs_;
  } else if (variant_ == DeepVariant::kPin) {
    extra = num_pairs_ * kPinSubnetOut;
  }
  Tensor& z = ctx->z;
  z.Resize({b, emb_cols + extra});
  for (size_t k = 0; k < b; ++k) {
    std::memcpy(z.row(k), emb_out.row(k), emb_cols * sizeof(float));
  }

  switch (variant_) {
    case DeepVariant::kDeepFm:
      break;
    case DeepVariant::kIpnn: {
      for (size_t k = 0; k < b; ++k) {
        const float* e = emb_out.row(k);
        float* zp = z.row(k) + emb_cols;
        for (size_t p = 0; p < num_pairs_; ++p) {
          const auto [i, j] = field_pairs_[p];
          zp[p] = Dot(d, e + i * d, e + j * d);
        }
      }
      break;
    }
    case DeepVariant::kOpnn: {
      for (size_t k = 0; k < b; ++k) {
        const float* e = emb_out.row(k);
        float* zp = z.row(k) + emb_cols;
        for (size_t p = 0; p < num_pairs_; ++p) {
          const auto [i, j] = field_pairs_[p];
          const float* w = kernels_.value.row(p);
          const float* ei = e + i * d;
          const float* ej = e + j * d;
          float term = 0.0f;
          for (size_t a = 0; a < d; ++a) term += ei[a] * Dot(d, w + a * d, ej);
          zp[p] = term;
        }
      }
      break;
    }
    case DeepVariant::kPin: {
      ctx->subnet_in.resize(num_pairs_);
      ctx->subnet_out.resize(num_pairs_);
      ctx->subnet_ws.resize(num_pairs_);
      for (size_t p = 0; p < num_pairs_; ++p) {
        const auto [i, j] = field_pairs_[p];
        Tensor& in = ctx->subnet_in[p];
        in.Resize({b, 3 * d});
        for (size_t k = 0; k < b; ++k) {
          const float* e = emb_out.row(k);
          float* dst = in.row(k);
          std::memcpy(dst, e + i * d, d * sizeof(float));
          std::memcpy(dst + d, e + j * d, d * sizeof(float));
          Hadamard(d, e + i * d, e + j * d, dst + 2 * d);
        }
        Tensor& out = ctx->subnet_out[p];
        subnets_[p]->Forward(in, &out, &ctx->subnet_ws[p]);
        for (size_t k = 0; k < b; ++k) {
          std::memcpy(z.row(k) + emb_cols + p * kPinSubnetOut, out.row(k),
                      kPinSubnetOut * sizeof(float));
        }
      }
      break;
    }
  }

  mlp_->Forward(z, &ctx->mlp_out, &ctx->mlp);
  ctx->logits.resize(b);
  for (size_t k = 0; k < b; ++k) ctx->logits[k] = ctx->mlp_out.at(k, 0);

  if (variant_ == DeepVariant::kDeepFm) {
    const Tensor& linear_out = ctx->first_order;
    std::vector<float> sum_t(d);
    for (size_t k = 0; k < b; ++k) {
      float fm = fm_bias_.value[0] + Sum(linear_out.cols(), linear_out.row(k));
      const float* e = emb_out.row(k);
      for (size_t t = 0; t < d; ++t) sum_t[t] = 0.0f;
      float sq = 0.0f;
      for (size_t f = 0; f < num_fields_; ++f) {
        const float* ef = e + f * d;
        for (size_t t = 0; t < d; ++t) {
          sum_t[t] += ef[t];
          sq += ef[t] * ef[t];
        }
      }
      float s2 = 0.0f;
      for (size_t t = 0; t < d; ++t) s2 += sum_t[t] * sum_t[t];
      fm += 0.5f * (s2 - sq);
      ctx->logits[k] += fm;
    }
  }
}

void DeepBaselineModel::PrepareBatch(const Batch& batch,
                                     PreparedBatch* prep) const {
  prep->BeginFill(batch);
  emb_.Prepare(batch, prep);
  if (linear_) linear_->PrepareIds(batch, &prep->dedup, &prep->first_order);
}

float DeepBaselineModel::ForwardBackward(const PreparedBatch& prep) {
  emb_.ForwardPrepared(prep, prep.cat, &ctx_.emb_out);
  if (linear_) {
    linear_->ForwardPrepared(prep, prep.first_order, &ctx_.first_order);
  }
  Forward(&ctx_);
  const size_t b = prep.size;
  const size_t d = dim_;
  dlogits_.resize(b);
  const float loss = BceWithLogitsLoss(ctx_.logits.data(), prep.labels.data(),
                                       b, dlogits_.data());

  dmlp_out_.Resize({b, 1});
  for (size_t k = 0; k < b; ++k) dmlp_out_.at(k, 0) = dlogits_[k];
  mlp_->Backward(dmlp_out_, &dz_, &ctx_.mlp);

  const Tensor& emb_out = ctx_.emb_out;
  const size_t emb_cols = emb_out.cols();
  demb_.Resize({b, emb_cols});
  for (size_t k = 0; k < b; ++k) {
    std::memcpy(demb_.row(k), dz_.row(k), emb_cols * sizeof(float));
  }

  switch (variant_) {
    case DeepVariant::kIpnn: {
      for (size_t k = 0; k < b; ++k) {
        const float* e = emb_out.row(k);
        const float* dzp = dz_.row(k) + emb_cols;
        float* de = demb_.row(k);
        for (size_t p = 0; p < num_pairs_; ++p) {
          const auto [i, j] = field_pairs_[p];
          Axpy(d, dzp[p], e + j * d, de + i * d);
          Axpy(d, dzp[p], e + i * d, de + j * d);
        }
      }
      break;
    }
    case DeepVariant::kOpnn: {
      for (size_t k = 0; k < b; ++k) {
        const float* e = emb_out.row(k);
        const float* dzp = dz_.row(k) + emb_cols;
        float* de = demb_.row(k);
        for (size_t p = 0; p < num_pairs_; ++p) {
          const float g = dzp[p];
          if (g == 0.0f) continue;
          const auto [i, j] = field_pairs_[p];
          const float* w = kernels_.value.row(p);
          float* dw = kernels_.grad.row(p);
          const float* ei = e + i * d;
          const float* ej = e + j * d;
          float* dei = de + i * d;
          float* dej = de + j * d;
          for (size_t a = 0; a < d; ++a) {
            const float* wa = w + a * d;
            dei[a] += g * Dot(d, wa, ej);
            Axpy(d, g * ei[a], ej, dw + a * d);
            Axpy(d, g * ei[a], wa, dej);
          }
        }
      }
      break;
    }
    case DeepVariant::kDeepFm: {
      // FM-logit path adds gradients on top of the MLP path.
      const size_t linear_cols = ctx_.first_order.cols();
      dlinear_.Resize({b, linear_cols});
      std::vector<float> sum_t(d);
      for (size_t k = 0; k < b; ++k) {
        const float g = dlogits_[k];
        fm_bias_.grad[0] += g;
        float* dl = dlinear_.row(k);
        for (size_t c = 0; c < linear_cols; ++c) dl[c] = g;
        const float* e = emb_out.row(k);
        float* de = demb_.row(k);
        for (size_t t = 0; t < d; ++t) sum_t[t] = 0.0f;
        for (size_t f = 0; f < num_fields_; ++f) {
          const float* ef = e + f * d;
          for (size_t t = 0; t < d; ++t) sum_t[t] += ef[t];
        }
        for (size_t f = 0; f < num_fields_; ++f) {
          const float* ef = e + f * d;
          float* def = de + f * d;
          for (size_t t = 0; t < d; ++t) def[t] += g * (sum_t[t] - ef[t]);
        }
      }
      linear_->BackwardPrepared(dlinear_, prep, prep.first_order);
      break;
    }
    case DeepVariant::kPin: {
      dsub_out_.Resize({b, kPinSubnetOut});
      for (size_t p = 0; p < num_pairs_; ++p) {
        const auto [i, j] = field_pairs_[p];
        for (size_t k = 0; k < b; ++k) {
          std::memcpy(dsub_out_.row(k),
                      dz_.row(k) + emb_cols + p * kPinSubnetOut,
                      kPinSubnetOut * sizeof(float));
        }
        subnets_[p]->Backward(dsub_out_, &dsub_in_, &ctx_.subnet_ws[p]);
        for (size_t k = 0; k < b; ++k) {
          const float* e = emb_out.row(k);
          const float* din = dsub_in_.row(k);
          float* de = demb_.row(k);
          const float* ei = e + i * d;
          const float* ej = e + j * d;
          float* dei = de + i * d;
          float* dej = de + j * d;
          for (size_t t = 0; t < d; ++t) {
            dei[t] += din[t] + din[2 * d + t] * ej[t];
            dej[t] += din[d + t] + din[2 * d + t] * ei[t];
          }
        }
      }
      break;
    }
  }

  emb_.BackwardPrepared(demb_, prep, prep.cat);
  return loss;
}

void DeepBaselineModel::ApplyGrads() {
  emb_.StepPrepared();
  if (linear_) linear_->StepPrepared();
  dense_opt_.Step();
  dense_opt_.ZeroGrad();
}

void DeepBaselineModel::Predict(const Batch& batch, std::vector<float>* probs,
                                ForwardContext* ctx) const {
  emb_.Gather(batch, &ctx->emb_out);
  if (linear_) linear_->Gather(batch, &ctx->first_order);
  Forward(ctx);
  probs->resize(batch.size);
  SigmoidForward(ctx->logits.data(), batch.size, probs->data());
}

void DeepBaselineModel::CollectState(std::vector<Tensor*>* out) {
  emb_.CollectState(out);
  if (linear_) linear_->CollectState(out);
  for (DenseParam* p : dense_opt_.params()) out->push_back(&p->value);
}

size_t DeepBaselineModel::ParamCount() const {
  size_t total = emb_.ParamCount() + mlp_->ParamCount();
  if (variant_ == DeepVariant::kOpnn) total += kernels_.size();
  if (variant_ == DeepVariant::kDeepFm) {
    total += linear_->ParamCount() + fm_bias_.size();
  }
  for (const auto& s : subnets_) total += s->ParamCount();
  return total;
}

}  // namespace optinter

#include "models/fm_family.h"

#include "nn/layers.h"
#include "tensor/kernels.h"

namespace optinter {

FmFamilyModel::FmFamilyModel(const EncodedDataset& data,
                             const HyperParams& hp, FmVariant variant)
    : variant_(variant),
      dim_(hp.embed_dim),
      rng_(hp.seed),
      linear_(data, /*dim=*/1, hp.lr_orig, hp.l2_orig, &rng_),
      latent_(data,
              variant == FmVariant::kFfm
                  ? hp.embed_dim * (data.num_categorical() +
                                    data.num_continuous())
                  : hp.embed_dim,
              hp.lr_orig, hp.l2_orig, &rng_) {
  num_fields_ = latent_.num_fields();
  num_pairs_ = num_fields_ * (num_fields_ - 1) / 2;
  for (size_t i = 0; i < num_fields_; ++i) {
    for (size_t j = i + 1; j < num_fields_; ++j) {
      field_pairs_.emplace_back(i, j);
    }
  }
  bias_.name = "fm/bias";
  bias_.Resize({1});
  bias_.lr = hp.lr_orig;
  dense_opt_.AddParam(&bias_);
  if (variant_ == FmVariant::kFwFm) {
    pair_weights_.name = "fwfm/pair_weights";
    pair_weights_.Resize({num_pairs_});
    pair_weights_.value.Fill(1.0f);  // start at plain FM
    pair_weights_.lr = hp.lr_orig;
    pair_weights_.l2 = hp.l2_orig;
    dense_opt_.AddParam(&pair_weights_);
  } else if (variant_ == FmVariant::kFmFm) {
    pair_matrices_.name = "fmfm/pair_matrices";
    pair_matrices_.Resize({num_pairs_, dim_ * dim_});
    // Identity init: starts at plain FM.
    for (size_t p = 0; p < num_pairs_; ++p) {
      float* w = pair_matrices_.value.row(p);
      for (size_t t = 0; t < dim_; ++t) w[t * dim_ + t] = 1.0f;
    }
    pair_matrices_.lr = hp.lr_orig;
    pair_matrices_.l2 = hp.l2_orig;
    dense_opt_.AddParam(&pair_matrices_);
  }
}

std::string FmFamilyModel::Name() const {
  switch (variant_) {
    case FmVariant::kFm:
      return "FM";
    case FmVariant::kFfm:
      return "FFM";
    case FmVariant::kFwFm:
      return "FwFM";
    case FmVariant::kFmFm:
      return "FmFM";
  }
  return "FM?";
}

void FmFamilyModel::Logits(ForwardContext* ctx) const {
  const Tensor& linear_out = ctx->first_order;
  const Tensor& latent_out = ctx->emb_out;
  const size_t b = latent_out.rows();
  ctx->logits.resize(b);
  const size_t d = dim_;
  std::vector<float> tmp(d);
  for (size_t k = 0; k < b; ++k) {
    float logit = bias_.value[0] + Sum(linear_out.cols(), linear_out.row(k));
    const float* e = latent_out.row(k);
    switch (variant_) {
      case FmVariant::kFm: {
        // 0.5 * Σ_t [(Σ_f e_ft)² − Σ_f e_ft²].
        for (size_t t = 0; t < d; ++t) tmp[t] = 0.0f;
        float sq = 0.0f;
        for (size_t f = 0; f < num_fields_; ++f) {
          const float* ef = e + f * d;
          for (size_t t = 0; t < d; ++t) {
            tmp[t] += ef[t];
            sq += ef[t] * ef[t];
          }
        }
        float s2 = 0.0f;
        for (size_t t = 0; t < d; ++t) s2 += tmp[t] * tmp[t];
        logit += 0.5f * (s2 - sq);
        break;
      }
      case FmVariant::kFfm: {
        // Row layout per field: F slices of width d; slice t of field i is
        // its latent vector against opponent field t.
        const size_t stride = num_fields_ * d;
        for (size_t p = 0; p < num_pairs_; ++p) {
          const auto [i, j] = field_pairs_[p];
          logit += Dot(d, e + i * stride + j * d, e + j * stride + i * d);
        }
        break;
      }
      case FmVariant::kFwFm: {
        const float* r = pair_weights_.value.data();
        for (size_t p = 0; p < num_pairs_; ++p) {
          const auto [i, j] = field_pairs_[p];
          logit += r[p] * Dot(d, e + i * d, e + j * d);
        }
        break;
      }
      case FmVariant::kFmFm: {
        for (size_t p = 0; p < num_pairs_; ++p) {
          const auto [i, j] = field_pairs_[p];
          const float* w = pair_matrices_.value.row(p);
          const float* ei = e + i * d;
          const float* ej = e + j * d;
          // e_i^T W e_j.
          float term = 0.0f;
          for (size_t a = 0; a < d; ++a) {
            term += ei[a] * Dot(d, w + a * d, ej);
          }
          logit += term;
        }
        break;
      }
    }
    ctx->logits[k] = logit;
  }
}

void FmFamilyModel::PrepareBatch(const Batch& batch,
                                 PreparedBatch* prep) const {
  prep->BeginFill(batch);
  latent_.Prepare(batch, prep);
  linear_.PrepareIds(batch, &prep->dedup, &prep->first_order);
}

float FmFamilyModel::ForwardBackward(const PreparedBatch& prep) {
  const size_t b = prep.size;
  linear_.ForwardPrepared(prep, prep.first_order, &ctx_.first_order);
  latent_.ForwardPrepared(prep, prep.cat, &ctx_.emb_out);
  Logits(&ctx_);
  dlogits_.resize(b);
  const float loss = BceWithLogitsLoss(ctx_.logits.data(), prep.labels.data(),
                                       b, dlogits_.data());

  const size_t d = dim_;
  const size_t linear_cols = ctx_.first_order.cols();
  dlinear_.Resize({b, linear_cols});
  dlatent_.Resize({b, ctx_.emb_out.cols()});
  std::vector<float> sum_t(d);
  for (size_t k = 0; k < b; ++k) {
    const float g = dlogits_[k];
    bias_.grad[0] += g;
    float* dl = dlinear_.row(k);
    for (size_t c = 0; c < linear_cols; ++c) dl[c] = g;
    const float* e = ctx_.emb_out.row(k);
    float* de = dlatent_.row(k);
    switch (variant_) {
      case FmVariant::kFm: {
        for (size_t t = 0; t < d; ++t) sum_t[t] = 0.0f;
        for (size_t f = 0; f < num_fields_; ++f) {
          const float* ef = e + f * d;
          for (size_t t = 0; t < d; ++t) sum_t[t] += ef[t];
        }
        for (size_t f = 0; f < num_fields_; ++f) {
          const float* ef = e + f * d;
          float* def = de + f * d;
          for (size_t t = 0; t < d; ++t) {
            def[t] = g * (sum_t[t] - ef[t]);
          }
        }
        break;
      }
      case FmVariant::kFfm: {
        const size_t stride = num_fields_ * d;
        for (size_t p = 0; p < num_pairs_; ++p) {
          const auto [i, j] = field_pairs_[p];
          const float* eij = e + i * stride + j * d;
          const float* eji = e + j * stride + i * d;
          Axpy(d, g, eji, de + i * stride + j * d);
          Axpy(d, g, eij, de + j * stride + i * d);
        }
        break;
      }
      case FmVariant::kFwFm: {
        const float* r = pair_weights_.value.data();
        float* dr = pair_weights_.grad.data();
        for (size_t p = 0; p < num_pairs_; ++p) {
          const auto [i, j] = field_pairs_[p];
          const float* ei = e + i * d;
          const float* ej = e + j * d;
          dr[p] += g * Dot(d, ei, ej);
          Axpy(d, g * r[p], ej, de + i * d);
          Axpy(d, g * r[p], ei, de + j * d);
        }
        break;
      }
      case FmVariant::kFmFm: {
        for (size_t p = 0; p < num_pairs_; ++p) {
          const auto [i, j] = field_pairs_[p];
          const float* w = pair_matrices_.value.row(p);
          float* dw = pair_matrices_.grad.row(p);
          const float* ei = e + i * d;
          const float* ej = e + j * d;
          float* dei = de + i * d;
          float* dej = de + j * d;
          for (size_t a = 0; a < d; ++a) {
            const float* wa = w + a * d;
            // d e_i[a] += g * (W e_j)[a]; dW[a,:] += g*e_i[a]*e_j;
            dei[a] += g * Dot(d, wa, ej);
            Axpy(d, g * ei[a], ej, dw + a * d);
            // d e_j += g * W^T e_i: add g*e_i[a]*W[a,:].
            Axpy(d, g * ei[a], wa, dej);
          }
        }
        break;
      }
    }
  }
  linear_.BackwardPrepared(dlinear_, prep, prep.first_order);
  latent_.BackwardPrepared(dlatent_, prep, prep.cat);
  return loss;
}

void FmFamilyModel::ApplyGrads() {
  linear_.StepPrepared();
  latent_.StepPrepared();
  dense_opt_.Step();
  dense_opt_.ZeroGrad();
}

void FmFamilyModel::Predict(const Batch& batch, std::vector<float>* probs,
                            ForwardContext* ctx) const {
  linear_.Gather(batch, &ctx->first_order);
  latent_.Gather(batch, &ctx->emb_out);
  Logits(ctx);
  probs->resize(batch.size);
  SigmoidForward(ctx->logits.data(), batch.size, probs->data());
}

void FmFamilyModel::CollectState(std::vector<Tensor*>* out) {
  linear_.CollectState(out);
  latent_.CollectState(out);
  for (DenseParam* p : dense_opt_.params()) out->push_back(&p->value);
}

size_t FmFamilyModel::ParamCount() const {
  size_t total = linear_.ParamCount() + latent_.ParamCount() + bias_.size();
  if (variant_ == FmVariant::kFwFm) total += pair_weights_.size();
  if (variant_ == FmVariant::kFmFm) total += pair_matrices_.size();
  return total;
}

}  // namespace optinter

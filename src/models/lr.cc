#include "models/lr.h"

#include "nn/layers.h"
#include "tensor/kernels.h"

namespace optinter {

LrModel::LrModel(const EncodedDataset& data, const HyperParams& hp)
    : rng_(hp.seed),
      weights_(data, /*dim=*/1, hp.lr_orig, hp.l2_orig, &rng_) {
  bias_.name = "lr/bias";
  bias_.Resize({1});
  bias_.lr = hp.lr_orig;
  dense_opt_.AddParam(&bias_);
}

void LrModel::Logits(ForwardContext* ctx) const {
  const Tensor& features = ctx->emb_out;
  ctx->logits.resize(features.rows());
  for (size_t k = 0; k < features.rows(); ++k) {
    ctx->logits[k] = Sum(features.cols(), features.row(k)) + bias_.value[0];
  }
}

void LrModel::PrepareBatch(const Batch& batch, PreparedBatch* prep) const {
  prep->BeginFill(batch);
  weights_.Prepare(batch, prep);
}

float LrModel::ForwardBackward(const PreparedBatch& prep) {
  const size_t b = prep.size;
  weights_.ForwardPrepared(prep, prep.cat, &ctx_.emb_out);
  Logits(&ctx_);
  dlogits_.resize(b);
  const float loss = BceWithLogitsLoss(ctx_.logits.data(), prep.labels.data(),
                                       b, dlogits_.data());
  // d(logit)/d(weight column) = 1 for every embedded column.
  const size_t cols = ctx_.emb_out.cols();
  dfeat_.Resize({b, cols});
  for (size_t k = 0; k < b; ++k) {
    float* g = dfeat_.row(k);
    for (size_t c = 0; c < cols; ++c) g[c] = dlogits_[k];
    bias_.grad[0] += dlogits_[k];
  }
  weights_.BackwardPrepared(dfeat_, prep, prep.cat);
  return loss;
}

void LrModel::ApplyGrads() {
  weights_.StepPrepared();
  dense_opt_.Step();
  dense_opt_.ZeroGrad();
}

void LrModel::Predict(const Batch& batch, std::vector<float>* probs,
                      ForwardContext* ctx) const {
  weights_.Gather(batch, &ctx->emb_out);
  Logits(ctx);
  probs->resize(batch.size);
  SigmoidForward(ctx->logits.data(), batch.size, probs->data());
}

void LrModel::CollectState(std::vector<Tensor*>* out) {
  weights_.CollectState(out);
  for (DenseParam* p : dense_opt_.params()) out->push_back(&p->value);
}

size_t LrModel::ParamCount() const {
  return weights_.ParamCount() + bias_.size();
}

}  // namespace optinter

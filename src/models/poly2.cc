#include "models/poly2.h"

#include "nn/layers.h"
#include "tensor/kernels.h"

namespace optinter {

namespace {
std::vector<size_t> AllPairIndices(const EncodedDataset& data) {
  std::vector<size_t> pairs(data.num_pairs());
  std::iota(pairs.begin(), pairs.end(), 0);
  return pairs;
}
}  // namespace

Poly2Model::Poly2Model(const EncodedDataset& data, const HyperParams& hp)
    : rng_(hp.seed),
      weights_(data, /*dim=*/1, hp.lr_orig, hp.l2_orig, &rng_),
      cross_weights_(data, CrossKind::kPair, AllPairIndices(data), /*dim=*/1,
                     hp.lr_cross, hp.l2_cross, &rng_) {
  bias_.name = "poly2/bias";
  bias_.Resize({1});
  bias_.lr = hp.lr_orig;
  dense_opt_.AddParam(&bias_);
}

void Poly2Model::Logits(ForwardContext* ctx) const {
  const Tensor& features = ctx->emb_out;
  const Tensor& cross = ctx->cross_out;
  ctx->logits.resize(features.rows());
  for (size_t k = 0; k < features.rows(); ++k) {
    ctx->logits[k] = Sum(features.cols(), features.row(k)) +
                     Sum(cross.cols(), cross.row(k)) + bias_.value[0];
  }
}

void Poly2Model::PrepareBatch(const Batch& batch, PreparedBatch* prep) const {
  prep->BeginFill(batch);
  weights_.Prepare(batch, prep);
  cross_weights_.Prepare(batch, &prep->dedup, &prep->cross);
}

float Poly2Model::ForwardBackward(const PreparedBatch& prep) {
  const size_t b = prep.size;
  weights_.ForwardPrepared(prep, prep.cat, &ctx_.emb_out);
  cross_weights_.ForwardPrepared(prep.cross, b, &ctx_.cross_out);
  Logits(&ctx_);
  dlogits_.resize(b);
  const float loss = BceWithLogitsLoss(ctx_.logits.data(), prep.labels.data(),
                                       b, dlogits_.data());
  const size_t feat_cols = ctx_.emb_out.cols();
  const size_t cross_cols = ctx_.cross_out.cols();
  dfeat_.Resize({b, feat_cols});
  dcross_.Resize({b, cross_cols});
  for (size_t k = 0; k < b; ++k) {
    const float g = dlogits_[k];
    float* df = dfeat_.row(k);
    for (size_t c = 0; c < feat_cols; ++c) df[c] = g;
    float* dc = dcross_.row(k);
    for (size_t c = 0; c < cross_cols; ++c) dc[c] = g;
    bias_.grad[0] += g;
  }
  weights_.BackwardPrepared(dfeat_, prep, prep.cat);
  cross_weights_.BackwardPrepared(dcross_, prep.cross);
  return loss;
}

void Poly2Model::ApplyGrads() {
  weights_.StepPrepared();
  cross_weights_.StepPrepared();
  dense_opt_.Step();
  dense_opt_.ZeroGrad();
}

void Poly2Model::Predict(const Batch& batch, std::vector<float>* probs,
                         ForwardContext* ctx) const {
  weights_.Gather(batch, &ctx->emb_out);
  cross_weights_.Gather(batch, &ctx->cross_out);
  Logits(ctx);
  probs->resize(batch.size);
  SigmoidForward(ctx->logits.data(), batch.size, probs->data());
}

void Poly2Model::CollectState(std::vector<Tensor*>* out) {
  weights_.CollectState(out);
  cross_weights_.CollectState(out);
  for (DenseParam* p : dense_opt_.params()) out->push_back(&p->value);
}

size_t Poly2Model::ParamCount() const {
  return weights_.ParamCount() + cross_weights_.ParamCount() + bias_.size();
}

}  // namespace optinter

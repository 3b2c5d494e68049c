// Poly2 (paper baseline, Chang et al. 2010): logistic regression over
// original features plus *all* second-order cross-product transformed
// features — the memorized method with a shallow classifier.
//
//   logit = b + Σ_f w_f(v_f) + Σ_c w_c · x_c + Σ_(i,j) w_(i,j)(v_i × v_j)

#pragma once

#include <numeric>

#include "models/cross_embedding.h"
#include "models/feature_embedding.h"
#include "models/hyperparams.h"
#include "models/model.h"

namespace optinter {

class Poly2Model : public CtrModel {
 public:
  Poly2Model(const EncodedDataset& data, const HyperParams& hp);

  std::string Name() const override { return "Poly2"; }
  void PrepareBatch(const Batch& batch, PreparedBatch* prep) const override;
  float ForwardBackward(const PreparedBatch& prep) override;
  void ApplyGrads() override;
  void Predict(const Batch& batch, std::vector<float>* probs,
               ForwardContext* ctx) const override;
  size_t ParamCount() const override;
  void CollectState(std::vector<Tensor*>* out) override;

 private:
  /// ctx->logits from the gathered weights in ctx->emb_out and
  /// ctx->cross_out.
  void Logits(ForwardContext* ctx) const;

  Rng rng_;
  FeatureEmbedding weights_;
  CrossEmbedding cross_weights_;
  DenseParam bias_;
  Adam dense_opt_;

  // Training-path state, reused across steps.
  ForwardContext ctx_;
  std::vector<float> dlogits_;
  Tensor dfeat_;
  Tensor dcross_;
};

}  // namespace optinter

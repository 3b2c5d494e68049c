// Logistic regression (paper baseline "LR", Richardson et al. 2007):
// the naïve method with a shallow classifier — no feature interactions.
//
//   logit = b + Σ_f w_f(v_f) + Σ_c w_c · x_c

#pragma once

#include <memory>

#include "models/feature_embedding.h"
#include "models/hyperparams.h"
#include "models/model.h"

namespace optinter {

class LrModel : public CtrModel {
 public:
  LrModel(const EncodedDataset& data, const HyperParams& hp);

  std::string Name() const override { return "LR"; }
  void PrepareBatch(const Batch& batch, PreparedBatch* prep) const override;
  float ForwardBackward(const PreparedBatch& prep) override;
  void ApplyGrads() override;
  void Predict(const Batch& batch, std::vector<float>* probs,
               ForwardContext* ctx) const override;
  size_t ParamCount() const override;
  void CollectState(std::vector<Tensor*>* out) override;

 private:
  /// ctx->logits from the gathered weights in ctx->emb_out.
  void Logits(ForwardContext* ctx) const;

  Rng rng_;
  FeatureEmbedding weights_;  // dim-1 "embeddings" are the LR weights
  DenseParam bias_;
  Adam dense_opt_;

  // Training-path state, reused across steps.
  ForwardContext ctx_;
  std::vector<float> dlogits_;
  Tensor dfeat_;
};

}  // namespace optinter

// Shallow factorized baselines (paper Table III):
//
//   FM    (Rendle 2010):        logit += Σ_(i<j) ⟨e_i, e_j⟩
//   FFM   (Juan et al. 2016):   logit += Σ_(i<j) ⟨e_(i,f_j), e_(j,f_i)⟩
//                               (field-aware: one latent vector per
//                               opponent field, stored as an F·k-wide
//                               embedding sliced per pair)
//   FwFM  (Pan et al. 2018):    logit += Σ_(i<j) ⟨e_i, e_j⟩ · r_(i,j)
//   FmFM  (Sun et al. 2021):    logit += Σ_(i<j) e_i W_(i,j) e_jᵀ
//
// each on top of the LR first-order part. Pairs range over all embedded
// fields (categorical + continuous), matching the original formulations
// which treat every feature symmetrically.

#pragma once

#include "models/feature_embedding.h"
#include "models/hyperparams.h"
#include "models/model.h"
#include "nn/param.h"

namespace optinter {

/// Which second-order form the model uses.
enum class FmVariant { kFm, kFfm, kFwFm, kFmFm };

/// FM / FwFM / FmFM with a shallow (sigmoid) classifier.
class FmFamilyModel : public CtrModel {
 public:
  FmFamilyModel(const EncodedDataset& data, const HyperParams& hp,
                FmVariant variant);

  std::string Name() const override;
  void PrepareBatch(const Batch& batch, PreparedBatch* prep) const override;
  float ForwardBackward(const PreparedBatch& prep) override;
  void ApplyGrads() override;
  void Predict(const Batch& batch, std::vector<float>* probs,
               ForwardContext* ctx) const override;
  size_t ParamCount() const override;
  void CollectState(std::vector<Tensor*>* out) override;

 private:
  /// ctx->logits from the gathered first-order weights (ctx->first_order)
  /// and latent vectors (ctx->emb_out).
  void Logits(ForwardContext* ctx) const;

  FmVariant variant_;
  size_t dim_;
  size_t num_fields_;
  size_t num_pairs_;
  Rng rng_;
  FeatureEmbedding linear_;  // dim-1 first-order weights
  FeatureEmbedding latent_;  // dim-s1 latent vectors
  DenseParam bias_;
  DenseParam pair_weights_;   // FwFM: [P]
  DenseParam pair_matrices_;  // FmFM: [P × d × d] flattened
  Adam dense_opt_;
  std::vector<std::pair<size_t, size_t>> field_pairs_;

  // Training-path state, reused across steps.
  ForwardContext ctx_;
  std::vector<float> dlogits_;
  Tensor dlinear_;
  Tensor dlatent_;
};

}  // namespace optinter

// Deep baselines (paper Table III / §III-A3), all instances of the
// OptInter framework with a fixed feature-interaction method (FNN, the
// naïve instance, is FixedArchModel::MakeFnn):
//
//   IPNN   (Qu 2016):     factorized, inner product ⟨e_i, e_j⟩ per pair.
//   OPNN   (Qu 2016):     factorized, kernel product e_i K_(i,j) e_jᵀ.
//   DeepFM (Guo 2017):    factorized, FM logit + MLP logit, shared E^o.
//   PIN    (Qu 2019):     factorized, per-pair sub-network
//                         net([e_i, e_j, e_i ⊙ e_j]).
//
// Pairs range over all embedded fields (categorical + continuous).

#pragma once

#include <memory>

#include "models/feature_embedding.h"
#include "models/hyperparams.h"
#include "models/model.h"
#include "nn/mlp.h"

namespace optinter {

enum class DeepVariant { kIpnn, kOpnn, kDeepFm, kPin };

/// Output width of each PIN sub-network (paper: sub-net=[40,5]; scaled).
inline constexpr size_t kPinSubnetOut = 4;
/// Hidden width of each PIN sub-network.
inline constexpr size_t kPinSubnetHidden = 16;

class DeepBaselineModel : public CtrModel {
 public:
  DeepBaselineModel(const EncodedDataset& data, const HyperParams& hp,
                    DeepVariant variant);

  std::string Name() const override;
  void PrepareBatch(const Batch& batch, PreparedBatch* prep) const override;
  float ForwardBackward(const PreparedBatch& prep) override;
  void ApplyGrads() override;
  void Predict(const Batch& batch, std::vector<float>* probs,
               ForwardContext* ctx) const override;
  size_t ParamCount() const override;
  void CollectState(std::vector<Tensor*>* out) override;

 private:
  /// Forward from the gathered embeddings in ctx->emb_out (and, for
  /// DeepFM, the first-order weights in ctx->first_order); fills
  /// ctx->logits and every activation the backward pass reads.
  void Forward(ForwardContext* ctx) const;

  DeepVariant variant_;
  size_t dim_;
  size_t num_fields_ = 0;
  size_t num_pairs_ = 0;
  Rng rng_;
  FeatureEmbedding emb_;
  std::unique_ptr<FeatureEmbedding> linear_;  // DeepFM first-order part
  DenseParam fm_bias_;                        // DeepFM
  DenseParam kernels_;                        // OPNN: [P × d·d]
  std::vector<std::unique_ptr<Mlp>> subnets_; // PIN: one per pair
  std::unique_ptr<Mlp> mlp_;
  Adam dense_opt_;

  std::vector<std::pair<size_t, size_t>> field_pairs_;

  // Training-path state, reused across steps.
  ForwardContext ctx_;
  std::vector<float> dlogits_;
  Tensor dmlp_out_;
  Tensor dz_;
  Tensor demb_;
  Tensor dlinear_;
  Tensor dsub_out_;
  Tensor dsub_in_;
};

}  // namespace optinter

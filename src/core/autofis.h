// AutoFIS baseline (Liu et al., KDD 2020; paper §II-D and §III).
//
// AutoFIS is the hybrid-{factorize, naïve} predecessor of OptInter: a
// scalar gate g_(i,j) multiplies each factorized interaction embedding,
// and the gates are trained with the sparsity-inducing GRDA optimizer.
// Gates driven exactly to zero mark interactions to drop (naïve); the
// survivors stay factorized. The search space is a strict subset of
// OptInter's (no memorized option) — Table VI reports its selections as
// [0, y, z].

#pragma once

#include <memory>

#include "models/feature_embedding.h"
#include "models/hyperparams.h"
#include "models/interaction.h"
#include "models/model.h"
#include "nn/mlp.h"

namespace optinter {

/// AutoFIS search-stage model: gated Hadamard interactions + MLP.
class AutoFisSearchModel : public CtrModel {
 public:
  AutoFisSearchModel(const EncodedDataset& data, const HyperParams& hp);

  std::string Name() const override { return "AutoFIS-search"; }
  void PrepareBatch(const Batch& batch, PreparedBatch* prep) const override;
  float ForwardBackward(const PreparedBatch& prep) override;
  void ApplyGrads() override;
  void Predict(const Batch& batch, std::vector<float>* probs,
               ForwardContext* ctx) const override;
  size_t ParamCount() const override;
  void CollectState(std::vector<Tensor*>* out) override;

  /// Gate values (exactly zero = pruned).
  const DenseParam& gates() const { return gates_; }

  /// {factorize if gate != 0, else naïve} per pair.
  Architecture ExtractArchitecture() const;

 private:
  /// Gated interactions + MLP from the gathered embeddings in
  /// ctx->emb_out; fills ctx->logits.
  void Forward(ForwardContext* ctx) const;

  const EncodedDataset& data_;
  size_t s1_;
  Rng rng_;
  FeatureEmbedding emb_;
  std::unique_ptr<Mlp> mlp_;
  DenseParam gates_;  // [P]
  Adam theta_opt_;
  Grda gate_opt_;

  std::vector<std::pair<size_t, size_t>> cat_pairs_;

  // Training-path state, reused across steps.
  ForwardContext ctx_;
  std::vector<float> dlogits_;
  Tensor dmlp_out_;
  Tensor dz_;
  Tensor demb_;
};

}  // namespace optinter

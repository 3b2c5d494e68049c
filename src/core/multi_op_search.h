// Multi-operation search space (paper §II-C1): "Our framework can be
// extended easily to taking multiple operations into account as
// factorized methods."
//
// Where SearchModel relaxes over exactly {memorize, Hadamard, naïve},
// MultiOpSearchModel relaxes over {memorize} ∪ F ∪ {naïve} for a
// configurable set F of factorization functions — each pair can end up
// memorized, factorized *with its own operator*, or dropped. The
// mechanics are the same Gumbel-softmax / joint-update machinery
// (Eq. 16-18), with K = |F| + 2 candidates per pair.

#pragma once

#include <memory>

#include "models/cross_embedding.h"
#include "models/feature_embedding.h"
#include "models/hyperparams.h"
#include "models/interaction.h"
#include "models/model.h"
#include "nn/mlp.h"

namespace optinter {

/// A searched multi-operation architecture: the method per pair plus,
/// for factorized pairs, the chosen operator.
struct MultiOpArchitecture {
  Architecture methods;
  /// Valid where methods[p] == kFactorize; kHadamard elsewhere.
  std::vector<FactorizeFn> fns;
};

/// Gumbel-softmax search over {memorize} ∪ fns ∪ {naïve} per pair.
class MultiOpSearchModel : public CtrModel {
 public:
  MultiOpSearchModel(const EncodedDataset& data, const HyperParams& hp,
                     std::vector<FactorizeFn> fns = {
                         FactorizeFn::kHadamard,
                         FactorizeFn::kInnerProduct});

  std::string Name() const override { return "OptInter-multiop-search"; }
  void PrepareBatch(const Batch& batch, PreparedBatch* prep) const override;
  /// Samples fresh Gumbel noise, then forward + loss + backward; Θ and α
  /// are both updated in ApplyGrads (joint mode).
  float ForwardBackward(const PreparedBatch& prep) override;
  void ApplyGrads() override;
  /// Noise-free expectation under softmax(α/τ).
  void Predict(const Batch& batch, std::vector<float>* probs,
               ForwardContext* ctx) const override;
  size_t ParamCount() const override;
  void CollectState(std::vector<Tensor*>* out) override;

  void SetTemperature(float tau) {
    CHECK_GT(tau, 0.0f);
    tau_ = tau;
  }

  /// Argmax selection per pair.
  MultiOpArchitecture ExtractArchitecture() const;

  size_t num_candidates() const { return fns_.size() + 2; }

 private:
  void SampleProbs(std::vector<float>* probs);
  /// Mixed candidates + MLP from the gathered embeddings in ctx->emb_out
  /// and ctx->cross_out; fills ctx->logits.
  void ForwardWithProbs(const std::vector<float>& probs,
                        ForwardContext* ctx) const;

  const EncodedDataset& data_;
  std::vector<FactorizeFn> fns_;
  size_t s1_;
  size_t s2_;
  size_t db_;  // max candidate width
  float tau_ = 1.0f;
  Rng rng_;
  FeatureEmbedding emb_;
  std::unique_ptr<CrossEmbedding> cross_emb_;
  std::unique_ptr<Mlp> mlp_;
  DenseParam alpha_;  // [P × K], order: memorize, fns..., naive
  Adam theta_opt_;
  Adam arch_opt_;

  std::vector<std::pair<size_t, size_t>> cat_pairs_;

  // Training-path state, reused across steps.
  ForwardContext ctx_;
  std::vector<float> probs_cache_;
  std::vector<float> scratch_;
  std::vector<float> dlogits_;
  Tensor dmlp_out_;
  Tensor dz_;
  Tensor demb_;
  Tensor dcross_;
  std::vector<double> dp_;
};

}  // namespace optinter

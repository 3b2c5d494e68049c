// OptInter search-stage model (paper §II-C, Algorithm 1).
//
// Every categorical pair owns architecture logits a_(i,j) ∈ R^K over the
// candidates {memorize} ∪ F ∪ {naïve}, where F is a set of factorization
// functions: the paper's {Hadamard} (K = 3) by default, or several
// operators for the multi-operation search space (§II-C1: "Our framework
// can be extended easily to taking multiple operations into account as
// factorized methods"). During training the discrete choice is relaxed
// with the Gumbel-softmax trick (Eq. 16–17):
//
//   p_k = softmax_k( (a_k + g_k) / τ ),  g_k ~ Gumbel(0,1) i.i.d.
//
// and the combination block outputs the p-weighted sum of the K candidate
// embeddings (Eq. 18), zero-padded to a common width d_b (the widest
// candidate) so the sum is well-typed (the naïve candidate is the zero
// vector, matching the paper's e^n). Each combination block is a weighted
// block of the InteractionLayout that re-training also runs
// (core/interaction_layout.h), fed the sampled p in training and
// softmax(α/τ) in Predict; its backward walk also sums d(loss)/dp.
//
// Model parameters Θ and architecture parameters α are optimized
// *jointly* by default (the paper's choice); the bi-level alternative
// (DARTS-style alternation, §III-E ablation) is supported via
// ArchStep() + UpdateMode::kBilevel.

#pragma once

#include <memory>
#include <vector>

#include "core/interaction_layout.h"
#include "models/cross_embedding.h"
#include "models/feature_embedding.h"
#include "models/hyperparams.h"
#include "models/interaction.h"
#include "models/model.h"
#include "nn/mlp.h"

namespace optinter {

/// How Θ and α are updated during search.
enum class UpdateMode {
  /// One gradient step updates both Θ and α (paper Algorithm 1).
  kJoint,
  /// TrainStep updates Θ only; ArchStep (on validation batches) updates α
  /// only — the bi-level baseline of the §III-E ablation.
  kBilevel,
};

/// Gumbel-softmax temperature for search epoch `epoch` of `epochs`: a
/// linear anneal from hp.gumbel_temp_start (first epoch) to
/// hp.gumbel_temp_end (last epoch; a single epoch runs at the end value).
float AnnealedTemperature(const HyperParams& hp, size_t epoch,
                          size_t epochs);

/// The differentiable search-stage model: Gumbel-softmax search over
/// {memorize} ∪ fns ∪ {naïve} per pair.
class SearchModel : public CtrModel {
 public:
  /// `fns` is the set of factorization candidates; empty means the
  /// paper's {hp.factorize_fn}.
  SearchModel(const EncodedDataset& data, const HyperParams& hp,
              UpdateMode mode = UpdateMode::kJoint,
              std::vector<FactorizeFn> fns = {});

  std::string Name() const override {
    const bool joint = mode_ == UpdateMode::kJoint;
    if (fns_.size() > 1) {
      return joint ? "OptInter-multiop-search"
                   : "OptInter-multiop-search-bilevel";
    }
    return joint ? "OptInter-search" : "OptInter-search-bilevel";
  }

  /// A step (CtrModel phases) updates Θ and α in joint mode and Θ only in
  /// bi-level mode. The Gumbel noise stream is consumed inside
  /// ForwardBackward in step order, on the calling thread, so a TrainStep
  /// loop and the pipelined executor train bit-identically.
  void PrepareBatch(const Batch& batch, PreparedBatch* prep) const override;
  float ForwardBackward(const PreparedBatch& prep) override;
  void ApplyGrads() override;

  /// Bi-level only: one α-update step (typically on a validation batch),
  /// prepared the way TrainStep prepares its batch. RunSearchStage runs it
  /// after every Θ step, from the executor's quiescent-point hook.
  float ArchStep(const Batch& batch);

  /// Eval-time prediction: expectation under softmax(α/τ), no noise.
  void Predict(const Batch& batch, std::vector<float>* probs,
               ForwardContext* ctx) const override;

  size_t ParamCount() const override;
  void CollectState(std::vector<Tensor*>* out) override;

  /// Gumbel-softmax temperature (annealed by the search driver).
  void SetTemperature(float tau) {
    CHECK_GT(tau, 0.0f);
    tau_ = tau;
  }
  float temperature() const { return tau_; }

  /// Selected method per pair: argmax_k α_(i,j)^k (paper Eq. 19); any
  /// factorization candidate selects kFactorize.
  Architecture ExtractArchitecture() const;

  /// Per pair, the operator of its highest-α factorization candidate: the
  /// chosen operator wherever ExtractArchitecture says kFactorize (the
  /// per-pair `pair_fns` of FixedArchModel).
  std::vector<FactorizeFn> ExtractFactorizeFns() const;

  /// Current selection probabilities softmax(α/τ) for pair `p`, in
  /// candidate order {memorize, fns..., naïve}.
  std::vector<float> PairProbabilities(size_t p) const;

  size_t num_candidates() const { return fns_.size() + 2; }

  /// Raw architecture logits [P × K] (tests / diagnostics).
  const DenseParam& alpha() const { return alpha_; }
  DenseParam& mutable_alpha() { return alpha_; }

 private:
  /// MLP over ctx->z into ctx->mlp_out, then ctx->logits.
  void MlpLogits(ForwardContext* ctx) const;

  /// Computes per-pair probabilities with fresh Gumbel noise.
  void SampleProbs(std::vector<float>* probs);

  /// softmax(α_p/τ) into out[0, K).
  void ExpectedProbs(size_t p, float* out) const;

  /// Index of pair p's largest logit among candidates [lo, hi); the first
  /// wins ties.
  size_t ArgmaxCandidate(size_t p, size_t lo, size_t hi) const;

  const EncodedDataset& data_;
  UpdateMode mode_;
  std::vector<FactorizeFn> fns_;
  float tau_ = 1.0f;
  Rng rng_;
  FeatureEmbedding emb_;
  const InteractionLayout layout_;  // one weighted block per pair
  std::unique_ptr<CrossEmbedding> cross_emb_;  // all pairs
  std::unique_ptr<Mlp> mlp_;
  DenseParam alpha_;  // [P × K] logits, order {m, fns..., n}
  Adam theta_opt_;
  Adam arch_opt_;

  // Training-path caches: activations live in ctx_ so forward state has a
  // single home shared with Predict. Gradient tensors and reduction
  // buffers are members so their heap capacity persists across steps
  // (steady-state zero-allocation contract, DESIGN.md).
  ForwardContext ctx_;
  std::vector<float> probs_cache_;
  std::vector<float> dlogits_;
  Tensor dmlp_out_;
  Tensor dz_;
  InteractionGrads grads_;
};

}  // namespace optinter

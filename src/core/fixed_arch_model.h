// The OptInter framework with a *fixed* per-pair method assignment —
// the re-train-stage model (paper Algorithm 2, Eq. 19), and by choosing
// uniform architectures, also the FNN / OptInter-M / OptInter-F instances
// of the framework (paper Table III).
//
// Feature interaction layer (paper §II-B3): for every categorical field
// pair (i, j), the interaction embedding e^b_(i,j) is
//   memorize:  E^m_(i,j)[cross id]                (width s2)
//   factorize: e^o_i ⊙ e^o_j  (Hadamard, Eq. 14)  (width s1)
//   naïve:     omitted                            (width 0)
// The classifier (§II-B4) is an MLP with LayerNorm+ReLU over
// e = [e^o, e^b], ending in a sigmoid (applied inside the loss).

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
#include "tensor/kernels.h"

namespace optinter {

/// OptInter with a frozen architecture.
class FixedArchModel : public CtrModel {
 public:
  /// `arch` assigns a method to each categorical pair (canonical order).
  /// The dataset must have cross features built if any pair memorizes.
  /// `memorized_triples` (optional) lists indices into the dataset's
  /// built third-order triples to memorize alongside the pairwise
  /// architecture — the paper's higher-order extension. The dataset must
  /// have triple features built when non-empty.
  ///
  /// `pair_fns` (optional) assigns each factorized pair its own
  /// factorization function (multi-operation search space, §II-C1);
  /// empty means hp.factorize_fn for every pair.
  FixedArchModel(const EncodedDataset& data, const Architecture& arch,
                 const HyperParams& hp, std::string name = "OptInter",
                 std::vector<size_t> memorized_triples = {},
                 std::vector<FactorizeFn> pair_fns = {});

  std::string Name() const override { return name_; }

  void PrepareBatch(const Batch& batch, PreparedBatch* prep) const override;
  float ForwardBackward(const PreparedBatch& prep) override;
  void ApplyGrads() override;

  /// Every batch size assembles z with the one row assembler
  /// (interaction_layout.h) straight from the tables. Once frozen, the MLP
  /// runs over weights packed at freeze (same bits).
  void Predict(const Batch& batch, std::vector<float>* probs,
               ForwardContext* ctx) const override;

  /// The MLP Predict runs over ctx->z into ctx->mlp_out and ctx->logits:
  /// over the packed weights once frozen, the plain fp32 Linears before.
  /// The quantized views (int8 and bf16) reuse it for their MLP.
  void MlpLogits(ForwardContext* ctx) const;

  /// One PackNT per MLP Linear, in Mlp::linears() order.
  using MlpPacks = std::vector<PackedNT>;

  /// The packs Freeze built; nullptr until the model is frozen.
  const MlpPacks* mlp_packs() const {
    return frozen() ? &mlp_packs_ : nullptr;
  }

  size_t ParamCount() const override;
  void CollectState(std::vector<Tensor*>* out) override;

  const Architecture& arch() const { return arch_; }

  // --- Read-only structure access ---------------------------------------
  //
  // The serving-time quantizer (serve/quantized_model.h) runs this model's
  // layout and MLP over quantized tables; these accessors expose the
  // layout and the fp32 layers it converts or reuses.

  const InteractionLayout& layout() const { return layout_; }
  const FeatureEmbedding& feature_embedding() const { return emb_; }
  /// Memorized pairs (CrossKind::kPair); nullptr when no pair memorizes.
  const CrossEmbedding* cross_embedding() const { return cross_emb_.get(); }
  /// Memorized triples (CrossKind::kTriple); nullptr when there are none.
  const CrossEmbedding* triple_embedding() const { return triple_emb_.get(); }
  const Mlp& mlp() const { return *mlp_; }

  /// Instances of the framework with uniform methods (paper Table III).
  static std::unique_ptr<FixedArchModel> MakeFnn(const EncodedDataset& data,
                                                 const HyperParams& hp);
  static std::unique_ptr<FixedArchModel> MakeOptInterM(
      const EncodedDataset& data, const HyperParams& hp);
  static std::unique_ptr<FixedArchModel> MakeOptInterF(
      const EncodedDataset& data, const HyperParams& hp);

 protected:
  /// Packs every MLP Linear's weight (PackNT) and publishes the set.
  void OnFreeze() const override;

 private:
  std::string name_;
  Architecture arch_;
  Rng rng_;
  FeatureEmbedding emb_;
  const InteractionLayout layout_;
  std::unique_ptr<CrossEmbedding> cross_emb_;  // memorized pairs only
  std::unique_ptr<CrossEmbedding> triple_emb_;  // higher-order extension
  std::unique_ptr<Mlp> mlp_;
  Adam dense_opt_;

  // Written once, by OnFreeze; read only once frozen() (whose acquire
  // pairs with Freeze's release after OnFreeze).
  mutable MlpPacks mlp_packs_;

  // Training-path caches: activations live in ctx_ so forward state has a
  // single home shared with Predict. Gradient tensors are members (not
  // step locals) so their buffers persist across steps — part of the
  // steady-state zero-allocation contract (DESIGN.md).
  ForwardContext ctx_;
  std::vector<float> dlogits_;
  Tensor dmlp_out_;
  Tensor dz_;
  InteractionGrads grads_;
};

}  // namespace optinter

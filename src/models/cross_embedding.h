// Cross-product-feature embedding layer E^m (paper §II-B2, Eq. 4 path).
//
// One embedding table per categorical field pair, keyed by the encoded
// cross-product transformed feature id. This is the memorized method's
// parameter store and dominates model size (paper Table V: OptInter-M is
// 10–20× larger than factorized baselines).
//
// Supports embedding a subset of pairs, which is how the re-train stage
// instantiates tables only for pairs the search selected to memorize.

#pragma once

#include <memory>
#include <vector>

#include "data/batch.h"
#include "models/prepared_batch.h"
#include "nn/embedding.h"
#include "tensor/tensor.h"

namespace optinter {

/// Batched cross-product embedding lookup over a chosen set of pairs.
class CrossEmbedding {
 public:
  /// Builds tables for each pair index in `pairs` (canonical pair order
  /// indices). `dim` = s2; lr/l2 = paper lr_c / l2_c. The dataset must
  /// already have cross features built. `backend` is the per-table storage
  /// policy (resolved per pair vocab, see backend_resolve.h) — cross
  /// tables dominate model size, so this is where QR/tiered compression
  /// pays off.
  CrossEmbedding(const EncodedDataset& data, std::vector<size_t> pairs,
                 size_t dim, float lr, float l2, Rng* rng,
                 const EmbeddingBackendConfig& backend = {});

  /// Inference-only lookup, out: [B × (pairs.size() * dim)] with pair
  /// blocks in the order given at construction. Touches no mutable state,
  /// so concurrent calls on different batches are safe. The batch may
  /// reference any dataset with the same pair layout as the construction
  /// dataset (serving-arena batches qualify).
  void Gather(const Batch& batch, Tensor* out) const;

  /// Embedding row for pair-block `t` of dataset row `row`, written into
  /// `dst` (length dim()) — the fused batch-1 serving path reads cross
  /// blocks through this. A copy API (not a pointer) because QR tables
  /// compose their rows on the fly.
  void CopyRow(const EncodedDataset& data, size_t row, size_t t,
               float* dst) const;

  // Training path (see prepared_batch.h / DESIGN.md): id prep reads only
  // the dataset, ForwardPrepared gathers what Gather would and arms the
  // slot-addressed scatter, BackwardPrepared accumulates into it and
  // StepPrepared applies sparse Adam over the prepared slots.
  void Prepare(const Batch& batch, IdDedupScratch* dedup,
               std::vector<PreparedTable>* tables) const;
  void ForwardPrepared(const std::vector<PreparedTable>& tables,
                       size_t batch_size, Tensor* out);
  void BackwardPrepared(const Tensor& d_out,
                        const std::vector<PreparedTable>& tables);
  void StepPrepared(const AdamConfig& config = {});
  /// Ends the prepared scatter without updating (discarded gradients).
  void ClearPreparedGrads();

  size_t ParamCount() const;

  /// Appends pointers to each table's value tensor (checkpointing).
  void CollectState(std::vector<Tensor*>* out);

  size_t dim() const { return dim_; }
  size_t num_pairs() const { return pairs_.size(); }
  size_t output_dim() const { return pairs_.size() * dim_; }
  const std::vector<size_t>& pairs() const { return pairs_; }

  EmbeddingTable& table(size_t k) { return *tables_[k]; }
  const EmbeddingTable& table(size_t k) const { return *tables_[k]; }

 private:
  const EncodedDataset& data_;
  std::vector<size_t> pairs_;
  size_t dim_;
  std::vector<std::unique_ptr<EmbeddingTable>> tables_;
};

}  // namespace optinter

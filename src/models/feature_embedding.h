// Original-feature embedding layer E^o (paper §II-B2).
//
// One embedding table per categorical field; one single-row table per
// continuous field whose row is scaled by the normalized value (the
// paper's Criteo treatment: min-max normalize, then multiply with the
// corresponding embedding). The forward passes produce the concatenated
// e^o = [e^o_1, ..., e^o_M] batch matrix; BackwardPrepared scatters
// gradients into the tables' prepared slot buffers.

#pragma once

#include <memory>
#include <vector>

#include "data/batch.h"
#include "models/prepared_batch.h"
#include "nn/embedding.h"
#include "tensor/tensor.h"

namespace optinter {

/// Batched embedding lookup over all original fields.
class FeatureEmbedding {
 public:
  /// `dim` = s1; lr/l2 = paper lr_o / l2_o. `backend` is the per-table
  /// storage policy for the categorical tables (resolved per vocab, see
  /// backend_resolve.h); continuous tables are single-row and always
  /// dense.
  FeatureEmbedding(const EncodedDataset& data, size_t dim, float lr,
                   float l2, Rng* rng,
                   const EmbeddingBackendConfig& backend = {});

  /// Inference-only lookup, out: [B × (num_fields * dim)] with
  /// categorical fields first (in categorical order) followed by
  /// continuous fields. Touches no mutable state, so concurrent calls on
  /// different batches are safe. The batch may reference any dataset
  /// encoded with the same encoder as the construction dataset (same field
  /// layout and vocabularies) — the serving layer predicts from request
  /// arenas this way.
  void Gather(const Batch& batch, Tensor* out) const;

  /// CHECKs that a batch's dataset has this layer's field counts.
  void CheckSchema(const EncodedDataset& data) const;

  /// Continuous field `f`'s embedding at normalized value `v`: its single
  /// row scaled by v, into `dst` (length dim()).
  void ContinuousRow(size_t f, float v, float* dst) const {
    const float* src = cont_tables_[f]->Row(0);
    for (size_t t = 0; t < dim_; ++t) dst[t] = src[t] * v;
  }

  // --- Training path (see prepared_batch.h / DESIGN.md) ----------------
  //
  // A model with two FeatureEmbeddings (FM-family, DeepFM) keeps each
  // one's id lists apart: the primary layer uses prep->cat, the first-order
  // weights prep->first_order. The continuous values in prep->cont are
  // shared.

  /// Fills `tables` (one per categorical field) with this layer's id, slot
  /// and dedup lists. Reads only the dataset and row ids — never weights —
  /// so it may run ahead of the current step's ApplyGrads.
  void PrepareIds(const Batch& batch, IdDedupScratch* dedup,
                  std::vector<PreparedTable>* tables) const;

  /// PrepareIds into prep->cat, plus the stitched continuous values into
  /// prep->cont.
  void Prepare(const Batch& batch, PreparedBatch* prep) const;

  /// Forward from this layer's prepared lists `cat` and prep.cont (same
  /// output as Gather); arms every table's prepared scatter for
  /// BackwardPrepared.
  void ForwardPrepared(const PreparedBatch& prep,
                       const std::vector<PreparedTable>& cat, Tensor* out);

  /// Slot-addressed scatter of d_out (same shape as ForwardPrepared's out)
  /// into the prepared gradient buffers.
  void BackwardPrepared(const Tensor& d_out, const PreparedBatch& prep,
                        const std::vector<PreparedTable>& cat);

  /// Sparse-Adam over the prepared slots of every table.
  void StepPrepared(const AdamConfig& config = {});

  /// Ends every table's prepared scatter without updating (discarded
  /// gradients).
  void ClearPreparedGrads();

  size_t ParamCount() const;

  /// Appends pointers to each table's value tensor (checkpointing).
  void CollectState(std::vector<Tensor*>* out);

  size_t dim() const { return dim_; }
  size_t num_categorical() const { return cat_tables_.size(); }
  size_t num_continuous() const { return cont_tables_.size(); }
  /// Total fields embedded (categorical + continuous).
  size_t num_fields() const { return cat_tables_.size() + cont_tables_.size(); }
  size_t output_dim() const { return num_fields() * dim_; }

  /// Column offset of categorical field `f`'s embedding in the output.
  size_t CatOffset(size_t f) const { return f * dim_; }

  EmbeddingTable& cat_table(size_t f) { return *cat_tables_[f]; }
  const EmbeddingTable& cat_table(size_t f) const { return *cat_tables_[f]; }
  /// Single-row table of continuous field `f` (serving-time conversion).
  EmbeddingTable& cont_table(size_t f) { return *cont_tables_[f]; }
  const EmbeddingTable& cont_table(size_t f) const { return *cont_tables_[f]; }

 private:
  // The one row-gather body behind Gather and ForwardPrepared, which
  // differ only in where they read row k's id of categorical field f
  // (cat_id(k, f)) and its value of continuous field f (cont_value(k, f)).
  template <typename CatId, typename ContValue>
  void GatherRows(size_t batch_size, CatId&& cat_id, ContValue&& cont_value,
                  Tensor* out) const;

  size_t dim_;
  std::vector<std::unique_ptr<EmbeddingTable>> cat_tables_;
  std::vector<std::unique_ptr<EmbeddingTable>> cont_tables_;
};

}  // namespace optinter

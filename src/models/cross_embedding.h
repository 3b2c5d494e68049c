// Cross-product-feature embedding layer E^m (paper §II-B2, Eq. 4 path),
// for field pairs and, as the higher-order extension (§II-B1), for field
// triples.
//
// One embedding table per id column, keyed by the encoded cross-product
// transformed feature id. Pair tables are the memorized method's
// parameter store and dominate model size (paper Table V: OptInter-M is
// 10–20× larger than factorized baselines). Pairs and triples differ only
// in which id columns of the dataset they read (CrossKind).
//
// Supports embedding a subset of columns, which is how the re-train stage
// instantiates tables only for pairs the search selected to memorize.

#pragma once

#include <memory>
#include <vector>

#include "data/batch.h"
#include "models/prepared_batch.h"
#include "nn/embedding.h"
#include "tensor/tensor.h"

namespace optinter {

/// Which id columns of an EncodedDataset a cross layer reads.
enum class CrossKind {
  /// cross_ids / cross_vocab_sizes, with cross_hot_ids as tier metadata.
  kPair,
  /// triple_ids / triple_vocab_sizes; triples carry no hot-id metadata.
  kTriple,
};

/// One kind's id columns in a dataset: row-major [rows × width], or
/// ids == nullptr when the dataset has none built.
struct CrossIds {
  const int32_t* ids = nullptr;
  size_t width = 0;

  int32_t at(size_t row, size_t column) const {
    return ids[row * width + column];
  }
};

/// Batched cross-product embedding lookup over a chosen set of id columns.
class CrossEmbedding {
 public:
  /// Builds tables for each column index in `columns` (canonical pair
  /// order indices for kPair, indices into the dataset's built triples for
  /// kTriple). `dim` = s2; lr/l2 = paper lr_c / l2_c. The dataset must
  /// already have that kind's features built (vocab sizes suffice:
  /// metadata-only streaming datasets are fine). `backend` is the
  /// per-table storage policy (resolved per column vocab, see
  /// backend_resolve.h) — cross tables dominate model size, so this is
  /// where QR/tiered compression pays off.
  CrossEmbedding(const EncodedDataset& data, CrossKind kind,
                 std::vector<size_t> columns, size_t dim, float lr, float l2,
                 Rng* rng, const EmbeddingBackendConfig& backend = {});

  /// Inference-only lookup, out: [B × (columns.size() * dim)] with blocks
  /// in the order given at construction. Touches no mutable state, so
  /// concurrent calls on different batches are safe. The batch may
  /// reference any dataset with the same column layout as the construction
  /// dataset (serving-arena batches qualify).
  void Gather(const Batch& batch, Tensor* out) const;

  /// This layer's id columns in a batch's dataset; CHECKs they are built
  /// with the construction dataset's width.
  CrossIds Ids(const EncodedDataset& data) const;

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
  size_t num_blocks() const { return columns_.size(); }
  size_t output_dim() const { return columns_.size() * dim_; }
  /// Dataset column index per block.
  const std::vector<size_t>& columns() const { return columns_; }

  EmbeddingTable& table(size_t k) { return *tables_[k]; }
  const EmbeddingTable& table(size_t k) const { return *tables_[k]; }

 private:
  // The one row-gather body behind Gather and ForwardPrepared, which
  // differ only in where they read block t's ids of rows [lo, hi):
  // ids_of(t, lo, hi, buf) returns them, filling *buf if it must.
  template <typename IdsOf>
  void GatherRows(size_t batch_size, IdsOf&& ids_of, Tensor* out) const;

  CrossKind kind_;
  size_t width_;  // id columns per row in the construction dataset
  std::vector<size_t> columns_;
  size_t dim_;
  std::vector<std::unique_ptr<EmbeddingTable>> tables_;
};

}  // namespace optinter

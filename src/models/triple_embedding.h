// Third-order cross-product embedding layer — the higher-order analogue
// of CrossEmbedding (paper §II-B1 extension). One embedding table per
// selected field triple, keyed by the encoded triple cross id.

#pragma once

#include <memory>
#include <vector>

#include "data/batch.h"
#include "models/prepared_batch.h"
#include "nn/embedding.h"
#include "tensor/tensor.h"

namespace optinter {

/// Batched triple-cross embedding lookup over a chosen set of triples.
class TripleEmbedding {
 public:
  /// `triples` holds indices into the dataset's built triple set. The
  /// dataset must already have triple cross features built. `backend` is
  /// the per-table storage policy (resolved per triple vocab, see
  /// backend_resolve.h).
  TripleEmbedding(const EncodedDataset& data, std::vector<size_t> triples,
                  size_t dim, float lr, float l2, Rng* rng,
                  const EmbeddingBackendConfig& backend = {});

  /// Inference-only lookup, out: [B × (triples.size() * dim)]: touches no mutable state, so concurrent calls
  /// on different batches are safe. The batch may reference any dataset
  /// with the same triple layout as the construction dataset.
  void Gather(const Batch& batch, Tensor* out) const;
  /// Single-row gather into `dst` (length output_dim()) — the fused
  /// batch-1 serving path. Same values and op order as one row of Gather.
  void GatherRow(const EncodedDataset& data, size_t row, float* dst) const;
  // Training path (see prepared_batch.h / DESIGN.md): id prep reads only
  // the dataset, ForwardPrepared gathers what Gather would and arms the
  // slot-addressed scatter that BackwardPrepared/StepPrepared consume.
  void Prepare(const Batch& batch, IdDedupScratch* dedup,
               std::vector<PreparedTable>* tables) const;
  void ForwardPrepared(const std::vector<PreparedTable>& tables,
                       size_t batch_size, Tensor* out);
  void BackwardPrepared(const Tensor& d_out,
                        const std::vector<PreparedTable>& tables);
  void StepPrepared(const AdamConfig& config = {});

  size_t ParamCount() const;
  void CollectState(std::vector<Tensor*>* out);

  size_t dim() const { return dim_; }
  size_t num_triples() const { return triples_.size(); }
  const EmbeddingTable& table(size_t k) const { return *tables_[k]; }
  size_t output_dim() const { return triples_.size() * dim_; }
  const std::vector<size_t>& triples() const { return triples_; }

 private:
  const EncodedDataset& data_;
  std::vector<size_t> triples_;
  size_t dim_;
  std::vector<std::unique_ptr<EmbeddingTable>> tables_;
};

}  // namespace optinter

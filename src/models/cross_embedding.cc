#include "models/cross_embedding.h"

#include <cstring>

#include "common/thread_pool.h"
#include "models/backend_resolve.h"
#include "obs/trace.h"

namespace optinter {

CrossEmbedding::CrossEmbedding(const EncodedDataset& data,
                               std::vector<size_t> pairs, size_t dim,
                               float lr, float l2, Rng* rng,
                               const EmbeddingBackendConfig& backend)
    : data_(data), pairs_(std::move(pairs)), dim_(dim) {
  // Metadata-only datasets (streaming: vocab sizes without row payload)
  // are fine here; only the per-batch datasets need actual cross ids.
  CHECK(!data.cross_vocab_sizes.empty()) << "call BuildCrossFeatures first";
  CHECK_GT(dim, 0u);
  tables_.reserve(pairs_.size());
  for (size_t p : pairs_) {
    CHECK_LT(p, data.num_pairs());
    auto table = std::make_unique<EmbeddingTable>(
        "cross_emb/pair" + std::to_string(p), data.cross_vocab_sizes[p],
        dim, lr, l2,
        ResolveTableBackend(backend, data.cross_vocab_sizes[p],
                            data.cross_hot_ids, p));
    table->Init(rng);
    tables_.push_back(std::move(table));
  }
}

void CrossEmbedding::Gather(const Batch& batch, Tensor* out) const {
  OPTINTER_TRACE_SPAN("cross_gather");
  const EncodedDataset& data = *batch.data;
  CHECK(data.has_cross());
  CHECK_EQ(data.num_pairs(), data_.num_pairs());
  // CopyRow writes whole rows, so every element of out is written.
  out->ResizeForOverwrite({batch.size, output_dim()});
  auto gather = [&](size_t lo, size_t hi) {
    for (size_t k = lo; k < hi; ++k) {
      const size_t r = batch.rows[k];
      float* dst = out->row(k);
      for (size_t t = 0; t < pairs_.size(); ++t) {
        tables_[t]->CopyRow(data.cross(r, pairs_[t]), dst + t * dim_);
      }
    }
  };
  // Disjoint per-row writes: fan-out is bit-identical to the serial loop.
  if (batch.size * output_dim() >= (1u << 15)) {
    ParallelForChunks(0, batch.size, gather, /*min_chunk=*/64);
  } else {
    gather(0, batch.size);
  }
}

void CrossEmbedding::CopyRow(const EncodedDataset& data, size_t row,
                             size_t t, float* dst) const {
  tables_[t]->CopyRow(data.cross(row, pairs_[t]), dst);
}

void CrossEmbedding::Prepare(const Batch& batch, IdDedupScratch* dedup,
                             std::vector<PreparedTable>* tables) const {
  OPTINTER_TRACE_SPAN("cross_prepare");
  // Copies everything downstream phases need; the batch's dataset (which
  // may be a recycled streaming buffer) is not retained.
  const EncodedDataset& data = *batch.data;
  CHECK(data.has_cross());
  CHECK_EQ(data.num_pairs(), data_.num_pairs());
  tables->resize(pairs_.size());
  for (size_t t = 0; t < pairs_.size(); ++t) {
    PrepareTableIds(
        *tables_[t], batch.size,
        [&](size_t k) { return data.cross(batch.rows[k], pairs_[t]); },
        dedup, &(*tables)[t]);
  }
}

void CrossEmbedding::ForwardPrepared(const std::vector<PreparedTable>& tables,
                                     size_t batch_size, Tensor* out) {
  OPTINTER_TRACE_SPAN("cross_gather");
  CHECK_EQ(tables.size(), pairs_.size());
  out->Resize({batch_size, output_dim()});
  auto gather = [&](size_t lo, size_t hi) {
    for (size_t k = lo; k < hi; ++k) {
      float* dst = out->row(k);
      for (size_t t = 0; t < pairs_.size(); ++t) {
        tables_[t]->CopyRow(tables[t].ids[k], dst + t * dim_);
      }
    }
  };
  if (batch_size * output_dim() >= (1u << 15)) {
    ParallelForChunks(0, batch_size, gather, /*min_chunk=*/64);
  } else {
    gather(0, batch_size);
  }
  for (size_t t = 0; t < pairs_.size(); ++t) {
    tables_[t]->BeginPreparedScatter(tables[t].unique_rows.data(),
                                     tables[t].unique_rows.size());
  }
}

void CrossEmbedding::BackwardPrepared(
    const Tensor& d_out, const std::vector<PreparedTable>& tables) {
  OPTINTER_TRACE_SPAN("cross_scatter");
  CHECK_EQ(tables.size(), pairs_.size());
  CHECK_EQ(d_out.cols(), output_dim());
  // One bucket per (table, backing-row shard). Each bucket walks its rows
  // in ascending order, so every backing row accumulates in the serial
  // row order — bit for bit at any thread count — and distinct buckets
  // never share a gradient slot.
  auto scatter_bucket = [&](size_t t, size_t shard) {
    EmbeddingTable& table = *tables_[t];
    const PreparedTable& pt = tables[t];
    for (const int32_t k : pt.shard_rows[shard]) {
      table.AccumulatePreparedGradPrimary(
          static_cast<size_t>(pt.slots[k]), pt.ids[static_cast<size_t>(k)],
          d_out.row(static_cast<size_t>(k)) + t * dim_);
    }
    if (table.HasSecondary()) {
      for (const int32_t k : pt.shard_rows2[shard]) {
        table.AccumulatePreparedGradSecondary(
            static_cast<size_t>(pt.slots2[k]),
            pt.ids[static_cast<size_t>(k)],
            d_out.row(static_cast<size_t>(k)) + t * dim_);
      }
    }
  };
  const size_t num_buckets = pairs_.size() * EmbeddingTable::kGradShards;
  auto run_buckets = [&](size_t lo, size_t hi) {
    for (size_t b = lo; b < hi; ++b) {
      scatter_bucket(b / EmbeddingTable::kGradShards,
                     b % EmbeddingTable::kGradShards);
    }
  };
  if (d_out.size() >= (1u << 15) && num_buckets > 1) {
    ParallelForChunks(0, num_buckets, run_buckets, /*min_chunk=*/1);
  } else {
    run_buckets(0, num_buckets);
  }
}

void CrossEmbedding::StepPrepared(const AdamConfig& config) {
  for (auto& t : tables_) t->SparseAdamStepPrepared(config);
}

void CrossEmbedding::ClearPreparedGrads() {
  for (auto& t : tables_) t->ClearPreparedGrads();
}

void CrossEmbedding::CollectState(std::vector<Tensor*>* out) {
  for (auto& t : tables_) out->push_back(&t->mutable_values());
}

size_t CrossEmbedding::ParamCount() const {
  size_t total = 0;
  for (const auto& t : tables_) total += t->ParamCount();
  return total;
}

}  // namespace optinter

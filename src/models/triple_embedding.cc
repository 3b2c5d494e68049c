#include "models/triple_embedding.h"

#include <cstring>

#include "common/thread_pool.h"
#include "models/backend_resolve.h"
#include "obs/trace.h"

namespace optinter {

TripleEmbedding::TripleEmbedding(const EncodedDataset& data,
                                 std::vector<size_t> triples, size_t dim,
                                 float lr, float l2, Rng* rng,
                                 const EmbeddingBackendConfig& backend)
    : data_(data), triples_(std::move(triples)), dim_(dim) {
  // Metadata-only datasets (streaming: vocab sizes without row payload)
  // are fine here; only the per-batch datasets need actual triple ids.
  CHECK(!data.triple_vocab_sizes.empty())
      << "call BuildTripleCrossFeatures first";
  CHECK_GT(dim, 0u);
  tables_.reserve(triples_.size());
  // Triples carry no frequency metadata; tiered tables use the {1..K}
  // fallback (exact for hashed triple encodings) or explicit policy ids.
  const std::vector<std::vector<int32_t>> no_hot_meta;
  for (size_t t : triples_) {
    CHECK_LT(t, data.num_triples());
    auto table = std::make_unique<EmbeddingTable>(
        "triple_emb/" + std::to_string(t), data.triple_vocab_sizes[t], dim,
        lr, l2,
        ResolveTableBackend(backend, data.triple_vocab_sizes[t], no_hot_meta,
                            t));
    table->Init(rng);
    tables_.push_back(std::move(table));
  }
}

void TripleEmbedding::Gather(const Batch& batch, Tensor* out) const {
  OPTINTER_TRACE_SPAN("triple_gather");
  const EncodedDataset& data = *batch.data;
  CHECK(data.has_triples());
  CHECK_EQ(data.num_triples(), data_.num_triples());
  // CopyRow writes whole rows, so every element of out is written.
  out->ResizeForOverwrite({batch.size, output_dim()});
  auto gather = [&](size_t lo, size_t hi) {
    for (size_t k = lo; k < hi; ++k) {
      const size_t r = batch.rows[k];
      float* dst = out->row(k);
      for (size_t t = 0; t < triples_.size(); ++t) {
        tables_[t]->CopyRow(data.triple(r, triples_[t]), dst + t * dim_);
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

void TripleEmbedding::GatherRow(const EncodedDataset& data, size_t row,
                                float* dst) const {
  for (size_t t = 0; t < triples_.size(); ++t) {
    tables_[t]->CopyRow(data.triple(row, triples_[t]), dst + t * dim_);
  }
}

void TripleEmbedding::Prepare(const Batch& batch, IdDedupScratch* dedup,
                              std::vector<PreparedTable>* tables) const {
  OPTINTER_TRACE_SPAN("triple_prepare");
  // Copies everything downstream phases need; the batch's dataset (which
  // may be a recycled streaming buffer) is not retained.
  const EncodedDataset& data = *batch.data;
  CHECK(data.has_triples());
  CHECK_EQ(data.num_triples(), data_.num_triples());
  tables->resize(triples_.size());
  for (size_t t = 0; t < triples_.size(); ++t) {
    PrepareTableIds(
        *tables_[t], batch.size,
        [&](size_t k) { return data.triple(batch.rows[k], triples_[t]); },
        dedup, &(*tables)[t]);
  }
}

void TripleEmbedding::ForwardPrepared(const std::vector<PreparedTable>& tables,
                                      size_t batch_size, Tensor* out) {
  OPTINTER_TRACE_SPAN("triple_gather");
  CHECK_EQ(tables.size(), triples_.size());
  out->Resize({batch_size, output_dim()});
  auto gather = [&](size_t lo, size_t hi) {
    for (size_t k = lo; k < hi; ++k) {
      float* dst = out->row(k);
      for (size_t t = 0; t < triples_.size(); ++t) {
        tables_[t]->CopyRow(tables[t].ids[k], dst + t * dim_);
      }
    }
  };
  if (batch_size * output_dim() >= (1u << 15)) {
    ParallelForChunks(0, batch_size, gather, /*min_chunk=*/64);
  } else {
    gather(0, batch_size);
  }
  for (size_t t = 0; t < triples_.size(); ++t) {
    tables_[t]->BeginPreparedScatter(tables[t].unique_rows.data(),
                                     tables[t].unique_rows.size());
  }
}

void TripleEmbedding::BackwardPrepared(
    const Tensor& d_out, const std::vector<PreparedTable>& tables) {
  OPTINTER_TRACE_SPAN("triple_scatter");
  CHECK_EQ(tables.size(), triples_.size());
  CHECK_EQ(d_out.cols(), output_dim());
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
  const size_t num_buckets = triples_.size() * EmbeddingTable::kGradShards;
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

void TripleEmbedding::StepPrepared(const AdamConfig& config) {
  for (auto& t : tables_) t->SparseAdamStepPrepared(config);
}

size_t TripleEmbedding::ParamCount() const {
  size_t total = 0;
  for (const auto& t : tables_) total += t->ParamCount();
  return total;
}

void TripleEmbedding::CollectState(std::vector<Tensor*>* out) {
  for (auto& t : tables_) out->push_back(&t->mutable_values());
}

}  // namespace optinter

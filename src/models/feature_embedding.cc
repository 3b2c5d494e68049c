#include "models/feature_embedding.h"

#include <cstring>

#include "common/thread_pool.h"
#include "models/backend_resolve.h"
#include "obs/trace.h"

namespace optinter {

namespace {
// Rows × floats below which the gather loops stay serial; gathers are
// memory-bound, so only sizeable batches amortize the pool handoff.
constexpr size_t kParallelGatherFloats = 1u << 15;
}  // namespace

FeatureEmbedding::FeatureEmbedding(const EncodedDataset& data, size_t dim,
                                   float lr, float l2, Rng* rng,
                                   const EmbeddingBackendConfig& backend)
    : data_(data), dim_(dim) {
  CHECK_GT(dim, 0u);
  const size_t num_cat = data.num_categorical();
  cat_tables_.reserve(num_cat);
  for (size_t f = 0; f < num_cat; ++f) {
    auto table = std::make_unique<EmbeddingTable>(
        "orig_emb/cat" + std::to_string(f), data.cat_vocab_sizes[f], dim,
        lr, l2,
        ResolveTableBackend(backend, data.cat_vocab_sizes[f],
                            data.cat_hot_ids, f));
    table->Init(rng);
    cat_tables_.push_back(std::move(table));
  }
  for (size_t f = 0; f < data.num_continuous(); ++f) {
    auto table = std::make_unique<EmbeddingTable>(
        "orig_emb/cont" + std::to_string(f), /*vocab_size=*/1, dim, lr, l2);
    table->Init(rng);
    cont_tables_.push_back(std::move(table));
  }
}

void FeatureEmbedding::Forward(const Batch& batch, Tensor* out) {
  // Backward re-reads ids for the cached rows through the batch's dataset,
  // which must therefore stay valid through the whole train step. Any
  // dataset encoded compatibly with the construction one is accepted
  // (batch-local streaming buffers included); Gather checks the layout.
  Gather(batch, out);
  batch_data_ = batch.data;
  batch_rows_.assign(batch.rows, batch.rows + batch.size);
}

void FeatureEmbedding::Gather(const Batch& batch, Tensor* out) const {
  OPTINTER_TRACE_SPAN("embedding_gather");
  // Inference may read any schema-compatible dataset (e.g. the serving
  // layer's request arenas), not just the one the layer was built from;
  // ids must come from the same encoder so the vocabularies line up.
  const EncodedDataset& data = *batch.data;
  CHECK_EQ(data.num_categorical(), cat_tables_.size());
  CHECK_EQ(data.num_continuous(), cont_tables_.size());
  const size_t num_cat = cat_tables_.size();
  const size_t num_cont = cont_tables_.size();
  // Each row gets every categorical and continuous block in full, so
  // every element of out is written.
  out->ResizeForOverwrite({batch.size, output_dim()});
  auto gather = [&](size_t lo, size_t hi) {
    for (size_t k = lo; k < hi; ++k) {
      const size_t r = batch.rows[k];
      float* dst = out->row(k);
      for (size_t f = 0; f < num_cat; ++f) {
        cat_tables_[f]->CopyRow(data.cat(r, f), dst + f * dim_);
      }
      for (size_t f = 0; f < num_cont; ++f) {
        const float v = data.cont(r, f);
        const float* src = cont_tables_[f]->Row(0);
        float* d = dst + (num_cat + f) * dim_;
        for (size_t t = 0; t < dim_; ++t) d[t] = src[t] * v;
      }
    }
  };
  // Rows write disjoint output ranges, so the fan-out is bit-identical to
  // the serial loop.
  if (batch.size * output_dim() >= kParallelGatherFloats) {
    ParallelForChunks(0, batch.size, gather, /*min_chunk=*/64);
  } else {
    gather(0, batch.size);
  }
}

void FeatureEmbedding::GatherRow(const EncodedDataset& data, size_t row,
                                 float* dst) const {
  const size_t num_cat = cat_tables_.size();
  const size_t num_cont = cont_tables_.size();
  CHECK_EQ(data.num_categorical(), num_cat);
  CHECK_EQ(data.num_continuous(), num_cont);
  for (size_t f = 0; f < num_cat; ++f) {
    cat_tables_[f]->CopyRow(data.cat(row, f), dst + f * dim_);
  }
  for (size_t f = 0; f < num_cont; ++f) {
    const float v = data.cont(row, f);
    const float* src = cont_tables_[f]->Row(0);
    float* d = dst + (num_cat + f) * dim_;
    for (size_t t = 0; t < dim_; ++t) d[t] = src[t] * v;
  }
}

void FeatureEmbedding::Backward(const Tensor& d_out) {
  OPTINTER_TRACE_SPAN("embedding_scatter");
  const size_t num_cat = cat_tables_.size();
  const size_t num_cont = cont_tables_.size();
  CHECK_EQ(d_out.rows(), batch_rows_.size());
  CHECK_EQ(d_out.cols(), output_dim());
  const size_t rows = batch_rows_.size();
  // One scatter bucket per (table, backing-row shard). Buckets own
  // disjoint gradient shards, so they can run concurrently without locks;
  // each bucket scans the batch rows in ascending order, so every backing
  // row's accumulation order — and therefore the shard contents — match
  // the serial loop bit for bit. The table routes each id's backing parts
  // to their owning shard (AccumulateGradForShard filters internally).
  auto scatter_bucket = [&](size_t f, size_t shard) {
    if (f < num_cat) {
      EmbeddingTable& table = *cat_tables_[f];
      for (size_t k = 0; k < rows; ++k) {
        const int32_t id = batch_data_->cat(batch_rows_[k], f);
        table.AccumulateGradForShard(shard, id, d_out.row(k) + f * dim_);
      }
    } else {
      // Continuous tables have a single row: id 0, one shard. The scaled
      // accumulate shares its rounding with the prepared path
      // (AccumulatePreparedGradScaled), keeping the two bit-identical.
      if (shard != EmbeddingTable::ShardOf(0)) return;
      const size_t fc = f - num_cat;
      EmbeddingTable& table = *cont_tables_[fc];
      for (size_t k = 0; k < rows; ++k) {
        const float v = batch_data_->cont(batch_rows_[k], fc);
        table.AccumulateScaledGradForShard(shard, 0, d_out.row(k) + f * dim_,
                                           v);
      }
    }
  };
  const size_t num_buckets =
      (num_cat + num_cont) * EmbeddingTable::kGradShards;
  auto run_buckets = [&](size_t lo, size_t hi) {
    for (size_t b = lo; b < hi; ++b) {
      scatter_bucket(b / EmbeddingTable::kGradShards,
                     b % EmbeddingTable::kGradShards);
    }
  };
  if (d_out.size() >= kParallelGatherFloats && num_buckets > 1) {
    ParallelForChunks(0, num_buckets, run_buckets, /*min_chunk=*/1);
  } else {
    run_buckets(0, num_buckets);
  }
}

void FeatureEmbedding::Prepare(const Batch& batch, PreparedBatch* prep) const {
  OPTINTER_TRACE_SPAN("embedding_prepare");
  // Prepared buffers copy everything the step needs, so the batch may
  // point at any compatibly-encoded dataset — including a streaming
  // batcher's reusable buffer that is recycled right after this call.
  const EncodedDataset& data = *batch.data;
  const size_t num_cat = cat_tables_.size();
  const size_t num_cont = cont_tables_.size();
  CHECK_EQ(data.num_categorical(), num_cat);
  CHECK_EQ(data.num_continuous(), num_cont);
  prep->cat.resize(num_cat);
  for (size_t f = 0; f < num_cat; ++f) {
    PrepareTableIds(
        *cat_tables_[f], batch.size,
        [&](size_t k) { return data.cat(batch.rows[k], f); }, &prep->dedup,
        &prep->cat[f]);
  }
  prep->cont.clear();
  for (size_t k = 0; k < batch.size; ++k) {
    const size_t r = batch.rows[k];
    for (size_t f = 0; f < num_cont; ++f) {
      prep->cont.push_back(data.cont(r, f));
    }
  }
}

void FeatureEmbedding::ForwardPrepared(const PreparedBatch& prep,
                                       Tensor* out) {
  OPTINTER_TRACE_SPAN("embedding_gather");
  // prep is self-contained (ids, slots, cont values all copied); prep.data
  // may already be stale — e.g. a recycled streaming buffer — and is
  // deliberately not dereferenced here.
  const size_t num_cat = cat_tables_.size();
  const size_t num_cont = cont_tables_.size();
  CHECK_EQ(prep.cat.size(), num_cat);
  const size_t batch_size = prep.size;
  out->Resize({batch_size, output_dim()});
  auto gather = [&](size_t lo, size_t hi) {
    for (size_t k = lo; k < hi; ++k) {
      float* dst = out->row(k);
      for (size_t f = 0; f < num_cat; ++f) {
        cat_tables_[f]->CopyRow(prep.cat[f].ids[k], dst + f * dim_);
      }
      for (size_t f = 0; f < num_cont; ++f) {
        const float v = prep.cont[k * num_cont + f];
        const float* src = cont_tables_[f]->Row(0);
        float* d = dst + (num_cat + f) * dim_;
        for (size_t t = 0; t < dim_; ++t) d[t] = src[t] * v;
      }
    }
  };
  if (batch_size * output_dim() >= kParallelGatherFloats) {
    ParallelForChunks(0, batch_size, gather, /*min_chunk=*/64);
  } else {
    gather(0, batch_size);
  }
  // Arm the slot-addressed scatters for BackwardPrepared.
  for (size_t f = 0; f < num_cat; ++f) {
    cat_tables_[f]->BeginPreparedScatter(prep.cat[f].unique_rows.data(),
                                         prep.cat[f].unique_rows.size());
  }
  static constexpr int32_t kContId[1] = {0};
  for (auto& t : cont_tables_) t->BeginPreparedScatter(kContId, 1);
}

void FeatureEmbedding::BackwardPrepared(const Tensor& d_out,
                                        const PreparedBatch& prep) {
  OPTINTER_TRACE_SPAN("embedding_scatter");
  const size_t num_cat = cat_tables_.size();
  const size_t num_cont = cont_tables_.size();
  CHECK_EQ(d_out.rows(), prep.size);
  CHECK_EQ(d_out.cols(), output_dim());
  // Same (table, backing-row-shard) bucket fan-out as Backward, but rows
  // come pre-bucketed from PrepareBatch (ascending within each bucket, so
  // the per-row accumulation order still matches the serial loop bit for
  // bit) and gradients land in the slot-addressed prepared buffers. QR
  // tables have a second row list (shard_rows2) for the remainder-factor
  // rows, which live in their own backing range.
  auto scatter_bucket = [&](size_t f, size_t shard) {
    if (f < num_cat) {
      EmbeddingTable& table = *cat_tables_[f];
      const PreparedTable& pt = prep.cat[f];
      for (const int32_t k : pt.shard_rows[shard]) {
        table.AccumulatePreparedGradPrimary(
            static_cast<size_t>(pt.slots[k]), pt.ids[static_cast<size_t>(k)],
            d_out.row(static_cast<size_t>(k)) + f * dim_);
      }
      if (table.HasSecondary()) {
        for (const int32_t k : pt.shard_rows2[shard]) {
          table.AccumulatePreparedGradSecondary(
              static_cast<size_t>(pt.slots2[k]),
              pt.ids[static_cast<size_t>(k)],
              d_out.row(static_cast<size_t>(k)) + f * dim_);
        }
      }
    } else {
      // Continuous tables have a single row: id 0, one shard.
      if (shard != EmbeddingTable::ShardOf(0)) return;
      const size_t fc = f - num_cat;
      EmbeddingTable& table = *cont_tables_[fc];
      for (size_t k = 0; k < prep.size; ++k) {
        table.AccumulatePreparedGradScaled(0, d_out.row(k) + f * dim_,
                                           prep.cont[k * num_cont + fc]);
      }
    }
  };
  const size_t num_buckets =
      (num_cat + num_cont) * EmbeddingTable::kGradShards;
  auto run_buckets = [&](size_t lo, size_t hi) {
    for (size_t b = lo; b < hi; ++b) {
      scatter_bucket(b / EmbeddingTable::kGradShards,
                     b % EmbeddingTable::kGradShards);
    }
  };
  if (d_out.size() >= kParallelGatherFloats && num_buckets > 1) {
    ParallelForChunks(0, num_buckets, run_buckets, /*min_chunk=*/1);
  } else {
    run_buckets(0, num_buckets);
  }
}

void FeatureEmbedding::StepPrepared(const AdamConfig& config) {
  for (auto& t : cat_tables_) t->SparseAdamStepPrepared(config);
  for (auto& t : cont_tables_) t->SparseAdamStepPrepared(config);
}

void FeatureEmbedding::Step(const AdamConfig& config) {
  for (auto& t : cat_tables_) t->SparseAdamStep(config);
  for (auto& t : cont_tables_) t->SparseAdamStep(config);
}

void FeatureEmbedding::ClearGrads() {
  for (auto& t : cat_tables_) t->ClearGrads();
  for (auto& t : cont_tables_) t->ClearGrads();
}

void FeatureEmbedding::CollectState(std::vector<Tensor*>* out) {
  for (auto& t : cat_tables_) out->push_back(&t->mutable_values());
  for (auto& t : cont_tables_) out->push_back(&t->mutable_values());
}

size_t FeatureEmbedding::ParamCount() const {
  size_t total = 0;
  for (const auto& t : cat_tables_) total += t->ParamCount();
  for (const auto& t : cont_tables_) total += t->ParamCount();
  return total;
}

}  // namespace optinter

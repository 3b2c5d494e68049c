#include "models/feature_embedding.h"

#include "common/thread_pool.h"
#include "models/backend_resolve.h"
#include "obs/trace.h"

namespace optinter {

FeatureEmbedding::FeatureEmbedding(const EncodedDataset& data, size_t dim,
                                   float lr, float l2, Rng* rng,
                                   const EmbeddingBackendConfig& backend)
    : dim_(dim) {
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

template <typename CatId, typename ContValue>
void FeatureEmbedding::GatherRows(size_t batch_size, CatId&& cat_id,
                                  ContValue&& cont_value, Tensor* out) const {
  const size_t num_cat = cat_tables_.size();
  const size_t num_cont = cont_tables_.size();
  // Each row gets every categorical and continuous block in full, so
  // every element of out is written.
  out->ResizeForOverwrite({batch_size, output_dim()});
  auto gather = [&](size_t lo, size_t hi) {
    for (size_t k = lo; k < hi; ++k) {
      float* dst = out->row(k);
      for (size_t f = 0; f < num_cat; ++f) {
        cat_tables_[f]->CopyRow(cat_id(k, f), dst + f * dim_);
      }
      for (size_t f = 0; f < num_cont; ++f) {
        ContinuousRow(f, cont_value(k, f), dst + (num_cat + f) * dim_);
      }
    }
  };
  // Rows write disjoint output ranges, so the fan-out is bit-identical to
  // the serial loop.
  if (batch_size * output_dim() >= kParallelEmbeddingFloats) {
    ParallelForChunks(0, batch_size, gather, /*min_chunk=*/64);
  } else {
    gather(0, batch_size);
  }
}

void FeatureEmbedding::Gather(const Batch& batch, Tensor* out) const {
  OPTINTER_TRACE_SPAN("embedding_gather");
  // Inference may read any schema-compatible dataset (e.g. the serving
  // layer's request arenas), not just the one the layer was built from;
  // ids must come from the same encoder so the vocabularies line up.
  const EncodedDataset& data = *batch.data;
  CheckSchema(data);
  GatherRows(
      batch.size,
      [&](size_t k, size_t f) { return data.cat(batch.rows[k], f); },
      [&](size_t k, size_t f) { return data.cont(batch.rows[k], f); }, out);
}

void FeatureEmbedding::CheckSchema(const EncodedDataset& data) const {
  CHECK_EQ(data.num_categorical(), cat_tables_.size());
  CHECK_EQ(data.num_continuous(), cont_tables_.size());
}

void FeatureEmbedding::PrepareIds(const Batch& batch, IdDedupScratch* dedup,
                                  std::vector<PreparedTable>* tables) const {
  // Prepared buffers copy everything the step needs, so the batch may
  // point at any compatibly-encoded dataset — including a streaming
  // batcher's reusable buffer that is recycled right after this call.
  const EncodedDataset& data = *batch.data;
  const size_t num_cat = cat_tables_.size();
  CheckSchema(data);
  tables->resize(num_cat);
  for (size_t f = 0; f < num_cat; ++f) {
    PrepareTableIds(
        *cat_tables_[f], batch.size,
        [&](size_t k) { return data.cat(batch.rows[k], f); }, dedup,
        &(*tables)[f]);
  }
}

void FeatureEmbedding::Prepare(const Batch& batch, PreparedBatch* prep) const {
  OPTINTER_TRACE_SPAN("embedding_prepare");
  PrepareIds(batch, &prep->dedup, &prep->cat);
  const EncodedDataset& data = *batch.data;
  const size_t num_cont = cont_tables_.size();
  prep->cont.clear();
  for (size_t k = 0; k < batch.size; ++k) {
    const size_t r = batch.rows[k];
    for (size_t f = 0; f < num_cont; ++f) {
      prep->cont.push_back(data.cont(r, f));
    }
  }
}

void FeatureEmbedding::ForwardPrepared(const PreparedBatch& prep,
                                       const std::vector<PreparedTable>& cat,
                                       Tensor* out) {
  OPTINTER_TRACE_SPAN("embedding_gather");
  // prep is self-contained (ids, slots, cont values all copied); the
  // batch's dataset may already be stale — e.g. a recycled streaming
  // buffer.
  const size_t num_cat = cat_tables_.size();
  const size_t num_cont = cont_tables_.size();
  CHECK_EQ(cat.size(), num_cat);
  GatherRows(
      prep.size, [&](size_t k, size_t f) { return cat[f].ids[k]; },
      [&](size_t k, size_t f) { return prep.cont[k * num_cont + f]; }, out);
  // Arm the slot-addressed scatters for BackwardPrepared.
  for (size_t f = 0; f < num_cat; ++f) {
    cat_tables_[f]->BeginPreparedScatter(cat[f].unique_rows.data(),
                                         cat[f].unique_rows.size());
  }
  static constexpr int32_t kContId[1] = {0};
  for (auto& t : cont_tables_) t->BeginPreparedScatter(kContId, 1);
}

void FeatureEmbedding::BackwardPrepared(
    const Tensor& d_out, const PreparedBatch& prep,
    const std::vector<PreparedTable>& cat) {
  OPTINTER_TRACE_SPAN("embedding_scatter");
  const size_t num_cat = cat_tables_.size();
  const size_t num_cont = cont_tables_.size();
  CHECK_EQ(d_out.rows(), prep.size);
  CHECK_EQ(d_out.cols(), output_dim());
  // One scatter bucket per (table, backing-row shard); see
  // ScatterPreparedBucket for why this is bit-identical at any thread
  // count.
  RunScatterBuckets(
      num_cat + num_cont, d_out.size(), [&](size_t f, size_t shard) {
        if (f < num_cat) {
          ScatterPreparedBucket(cat[f], shard, d_out, f * dim_,
                                cat_tables_[f].get());
          return;
        }
        // Continuous tables have a single row: id 0, one shard.
        if (shard != EmbeddingTable::ShardOf(0)) return;
        const size_t fc = f - num_cat;
        EmbeddingTable& table = *cont_tables_[fc];
        for (size_t k = 0; k < prep.size; ++k) {
          table.AccumulatePreparedGradScaled(0, d_out.row(k) + f * dim_,
                                             prep.cont[k * num_cont + fc]);
        }
      });
}

void FeatureEmbedding::StepPrepared(const AdamConfig& config) {
  for (auto& t : cat_tables_) t->SparseAdamStepPrepared(config);
  for (auto& t : cont_tables_) t->SparseAdamStepPrepared(config);
}

void FeatureEmbedding::ClearPreparedGrads() {
  for (auto& t : cat_tables_) t->ClearPreparedGrads();
  for (auto& t : cont_tables_) t->ClearPreparedGrads();
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

#include "models/cross_embedding.h"

#include "common/thread_pool.h"
#include "models/backend_resolve.h"
#include "obs/trace.h"

namespace optinter {

namespace {

// Per-kind names: table-name prefixes (error messages name tables by
// them) and trace-span literals.
struct KindNames {
  const char* table_prefix;
  const char* gather_span;
  const char* prepare_span;
  const char* scatter_span;
  const char* not_built;
};

const KindNames& NamesOf(CrossKind kind) {
  static constexpr KindNames kPair = {"cross_emb/pair", "cross_gather",
                                      "cross_prepare", "cross_scatter",
                                      "fit the encoder with build_cross"};
  static constexpr KindNames kTriple = {
      "triple_emb/", "triple_gather", "triple_prepare", "triple_scatter",
      "fit the encoder with options.triples"};
  return kind == CrossKind::kPair ? kPair : kTriple;
}

// `kind`'s id columns in `data`.
CrossIds CrossIdsOf(const EncodedDataset& data, CrossKind kind) {
  const bool pair = kind == CrossKind::kPair;
  const std::vector<int32_t>& ids = pair ? data.cross_ids : data.triple_ids;
  return {ids.empty() ? nullptr : ids.data(),
          pair ? data.num_pairs() : data.num_triples()};
}

}  // namespace

CrossEmbedding::CrossEmbedding(const EncodedDataset& data, CrossKind kind,
                               std::vector<size_t> columns, size_t dim,
                               float lr, float l2, Rng* rng,
                               const EmbeddingBackendConfig& backend)
    : kind_(kind),
      width_(CrossIdsOf(data, kind).width),
      columns_(std::move(columns)),
      dim_(dim) {
  const KindNames& names = NamesOf(kind_);
  const bool pair = kind_ == CrossKind::kPair;
  const std::vector<size_t>& vocab_sizes =
      pair ? data.cross_vocab_sizes : data.triple_vocab_sizes;
  // Triples carry no frequency metadata; tiered tables use the {1..K}
  // fallback (exact for hashed triple encodings) or explicit policy ids.
  static const std::vector<std::vector<int32_t>> kNoHotMeta;
  const std::vector<std::vector<int32_t>>& hot_meta =
      pair ? data.cross_hot_ids : kNoHotMeta;
  // Metadata-only datasets (streaming: vocab sizes without row payload)
  // are fine here; only the per-batch datasets need actual ids.
  CHECK(!vocab_sizes.empty()) << names.not_built;
  CHECK_GT(dim, 0u);
  tables_.reserve(columns_.size());
  for (size_t c : columns_) {
    CHECK_LT(c, width_);
    auto table = std::make_unique<EmbeddingTable>(
        names.table_prefix + std::to_string(c), vocab_sizes[c], dim, lr, l2,
        ResolveTableBackend(backend, vocab_sizes[c], hot_meta, c));
    table->Init(rng);
    tables_.push_back(std::move(table));
  }
}

CrossIds CrossEmbedding::Ids(const EncodedDataset& data) const {
  const CrossIds ids = CrossIdsOf(data, kind_);
  CHECK(ids.ids != nullptr) << NamesOf(kind_).not_built;
  CHECK_EQ(ids.width, width_);
  return ids;
}

template <typename IdsOf>
void CrossEmbedding::GatherRows(size_t batch_size, IdsOf&& ids_of,
                                Tensor* out) const {
  // CopyRows writes whole rows, so every element of out is written.
  out->ResizeForOverwrite({batch_size, output_dim()});
  auto gather = [&](size_t lo, size_t hi) {
    // Per thread, for id sources that are not one array per table.
    static thread_local std::vector<int32_t> ids;
    float* dst = out->data() + lo * output_dim();
    for (size_t t = 0; t < columns_.size(); ++t) {
      tables_[t]->CopyRows(ids_of(t, lo, hi, &ids), hi - lo, dst + t * dim_,
                           output_dim());
    }
  };
  // Disjoint per-row writes: fan-out is bit-identical to the serial loop.
  if (batch_size * output_dim() >= kParallelEmbeddingFloats) {
    ParallelForChunks(0, batch_size, gather, /*min_chunk=*/64);
  } else {
    gather(0, batch_size);
  }
}

void CrossEmbedding::Gather(const Batch& batch, Tensor* out) const {
  OPTINTER_TRACE_SPAN(NamesOf(kind_).gather_span);
  const CrossIds ids = Ids(*batch.data);
  GatherRows(
      batch.size,
      [&](size_t t, size_t lo, size_t hi, std::vector<int32_t>* buf) {
        buf->resize(hi - lo);
        for (size_t k = lo; k < hi; ++k) {
          (*buf)[k - lo] = ids.at(batch.rows[k], columns_[t]);
        }
        return buf->data();
      },
      out);
}

void CrossEmbedding::Prepare(const Batch& batch, IdDedupScratch* dedup,
                             std::vector<PreparedTable>* tables) const {
  OPTINTER_TRACE_SPAN(NamesOf(kind_).prepare_span);
  // Copies everything downstream phases need; the batch's dataset (which
  // may be a recycled streaming buffer) is not retained.
  const CrossIds ids = Ids(*batch.data);
  tables->resize(columns_.size());
  for (size_t t = 0; t < columns_.size(); ++t) {
    const size_t column = columns_[t];
    PrepareTableIds(
        *tables_[t], batch.size,
        [&](size_t k) { return ids.at(batch.rows[k], column); }, dedup,
        &(*tables)[t]);
  }
}

void CrossEmbedding::ForwardPrepared(const std::vector<PreparedTable>& tables,
                                     size_t batch_size, Tensor* out) {
  OPTINTER_TRACE_SPAN(NamesOf(kind_).gather_span);
  CHECK_EQ(tables.size(), columns_.size());
  GatherRows(
      batch_size,
      [&](size_t t, size_t lo, size_t, std::vector<int32_t>*) {
        return tables[t].ids.data() + lo;
      },
      out);
  for (size_t t = 0; t < columns_.size(); ++t) {
    tables_[t]->BeginPreparedScatter(tables[t].unique_rows.data(),
                                     tables[t].unique_rows.size());
  }
}

void CrossEmbedding::BackwardPrepared(
    const Tensor& d_out, const std::vector<PreparedTable>& tables) {
  OPTINTER_TRACE_SPAN(NamesOf(kind_).scatter_span);
  CHECK_EQ(tables.size(), columns_.size());
  CHECK_EQ(d_out.cols(), output_dim());
  // One bucket per (table, backing-row shard); see ScatterPreparedBucket.
  RunScatterBuckets(columns_.size(), d_out.size(),
                    [&](size_t t, size_t shard) {
                      ScatterPreparedBucket(tables[t], shard, d_out, t * dim_,
                                            tables_[t].get());
                    });
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

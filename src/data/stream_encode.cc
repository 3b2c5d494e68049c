#include "data/stream_encode.h"

#include <algorithm>
#include <optional>

#include "common/string_util.h"
#include "data/shard_format.h"
#include "obs/registry.h"

namespace optinter {

Result<StreamEncodeStats> StreamEncodeToShards(
    RowSource* source, const std::string& dir,
    const StreamEncodeOptions& options) {
  CHECK(source != nullptr);
  const DatasetSchema& schema = source->schema();
  const size_t num_cat = schema.num_categorical();
  const size_t num_cont = schema.num_continuous();
  const size_t num_rows = source->num_rows();
  if (num_cat == 0) {
    return Status::Invalid("stream encoding needs categorical fields");
  }
  if (num_rows == 0) {
    return Status::Invalid("row source has no rows");
  }
  if (options.fit_fraction <= 0.0 || options.fit_fraction > 1.0) {
    return Status::Invalid(StrFormat(
        "fit_fraction %.3f outside (0, 1]", options.fit_fraction));
  }
  StreamEncodeStats stats;
  stats.rows = num_rows;
  stats.fit_rows = std::max<size_t>(
      1, static_cast<size_t>(static_cast<double>(num_rows) *
                             options.fit_fraction));
  OPTINTER_ASSIGN_OR_RETURN(
      const FittedEncoder encoder,
      FittedEncoder::Fit(source, stats.fit_rows, options));

  const EncodedDataset fitted = encoder.Metadata();
  ShardDatasetMeta meta{fitted.schema,        fitted.cat_vocab_sizes,
                        fitted.cross_vocab_sizes, fitted.triple_fields,
                        fitted.triple_vocab_sizes, fitted.cat_hot_ids,
                        fitted.cross_hot_ids};
  const size_t num_pairs = meta.cross_vocab_sizes.size();
  const size_t num_triples = meta.triple_fields.size();
  OPTINTER_ASSIGN_OR_RETURN(
      auto writer, ShardWriter::Open(dir, std::move(meta),
                                     options.rows_per_shard));

  // One pass over every row: encode + append, tracking collisions.
  std::optional<FittedEncoder::HashCollisions> collisions;
  if (encoder.hashed()) collisions.emplace(encoder);
  std::vector<int64_t> cat_row(num_cat);
  std::vector<float> cont_row(std::max<size_t>(num_cont, 1));
  std::vector<int32_t> ids_row(num_cat);
  std::vector<int32_t> cross_row(num_pairs);
  std::vector<int32_t> triple_row(num_triples);
  std::vector<float> norm_row(std::max<size_t>(num_cont, 1));
  float label = 0.0f;
  OPTINTER_RETURN_NOT_OK(source->Restart());
  for (size_t r = 0; r < num_rows; ++r) {
    OPTINTER_RETURN_NOT_OK(
        source->NextRow(cat_row.data(), cont_row.data(), &label));
    encoder.EncodeRow(cat_row.data(), cont_row.data(), ids_row.data(),
                      cross_row.data(), triple_row.data(), norm_row.data(),
                      collisions ? &*collisions : nullptr);
    OPTINTER_RETURN_NOT_OK(writer->Append(
        ids_row.data(), num_pairs > 0 ? cross_row.data() : nullptr,
        num_triples > 0 ? triple_row.data() : nullptr,
        num_cont > 0 ? norm_row.data() : nullptr, label));
  }
  OPTINTER_RETURN_NOT_OK(writer->Finish());

  if (collisions) {
    stats.cat_hash = collisions->cat;
    stats.cross_hash = collisions->cross;
    auto& reg = obs::MetricsRegistry::Global();
    reg.GetCounter("encode.hash_rows")
        ->Add(stats.cat_hash.hashed_rows + stats.cross_hash.hashed_rows);
    reg.GetCounter("encode.hash_hot_rows")
        ->Add(stats.cat_hash.hot_rows + stats.cross_hash.hot_rows);
    reg.GetCounter("encode.hash_collision_rows")
        ->Add(stats.cat_hash.collision_rows +
              stats.cross_hash.collision_rows);
  }
  return stats;
}

}  // namespace optinter

// Raw and encoded dataset containers, and the row-source interface the
// encoder fits on.
//
// RawDataset holds generator/loader output: per-row raw categorical values
// (64-bit, in each field's natural domain), raw continuous values, and
// labels. EncodedDataset is what models consume: dense per-field ids
// (0 = OOV), min-max-normalized continuous values, and — when the encoder
// was fitted with crosses — encoded cross-product transformed feature ids
// for every categorical field pair (paper Eq. 4 / §II-B1) and for any
// requested field triples. RowSource is a restartable stream of raw rows;
// FittedEncoder::Fit (fitted_encoder.h) reads every row it fits on
// through one.

#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "data/schema.h"

namespace optinter {

/// Un-encoded dataset as produced by a generator or file loader.
struct RawDataset {
  DatasetSchema schema;
  size_t num_rows = 0;
  /// Row-major [num_rows × num_categorical] raw values.
  std::vector<int64_t> cat_values;
  /// Row-major [num_rows × num_continuous] raw values.
  std::vector<float> cont_values;
  std::vector<float> labels;

  int64_t cat(size_t row, size_t cat_field) const {
    return cat_values[row * schema.num_categorical() + cat_field];
  }
  float cont(size_t row, size_t cont_field) const {
    return cont_values[row * schema.num_continuous() + cont_field];
  }

  /// Checks that the value and label arrays hold num_rows rows.
  Status Validate() const;
};

/// A restartable, sequential producer of raw rows. Implementations:
/// MaterializedRowSource (below) over an in-RAM RawDataset, and
/// SynthRowSource (synth/stream_source.h) which regenerates rows from the
/// generator's RNG stream without materializing them.
class RowSource {
 public:
  virtual ~RowSource() = default;

  virtual const DatasetSchema& schema() const = 0;
  virtual size_t num_rows() const = 0;

  /// Rewinds to row 0. Rows must replay identically across passes.
  virtual Status Restart() = 0;

  /// Produces the next row: `cat` receives num_categorical() raw values,
  /// `cont` num_continuous() raw values, `label` the 0/1 label.
  virtual Status NextRow(int64_t* cat, float* cont, float* label) = 0;
};

/// RowSource view of a materialized RawDataset (CSV / libsvm loads): all
/// of its rows, or with `rows` just those rows, in that order (the
/// in-RAM encoder fits on the train split this way).
class MaterializedRowSource : public RowSource {
 public:
  /// `raw` and `rows` must outlive the source.
  explicit MaterializedRowSource(const RawDataset* raw,
                                 const std::vector<size_t>* rows = nullptr)
      : raw_(raw), rows_(rows) {}

  const DatasetSchema& schema() const override { return raw_->schema; }
  size_t num_rows() const override {
    return rows_ != nullptr ? rows_->size() : raw_->num_rows;
  }
  /// Also validates the dataset's shape, so a short label or value array
  /// fails here instead of being read past its end.
  Status Restart() override;
  Status NextRow(int64_t* cat, float* cont, float* label) override;

 private:
  const RawDataset* raw_;
  const std::vector<size_t>* rows_;
  size_t next_ = 0;
};

/// Fully encoded dataset ready for model consumption.
class EncodedDataset {
 public:
  DatasetSchema schema;
  size_t num_rows = 0;

  /// Row-major [num_rows × num_categorical] encoded ids (0 = OOV).
  std::vector<int32_t> cat_ids;
  /// Vocab size (including OOV) per categorical field.
  std::vector<size_t> cat_vocab_sizes;

  /// Row-major [num_rows × num_continuous], normalized to [0, 1].
  std::vector<float> cont_values;

  std::vector<float> labels;

  /// Row-major [num_rows × num_pairs] encoded cross ids (0 = OOV).
  /// Empty when the encoder was fitted without crosses.
  std::vector<int32_t> cross_ids;
  /// Vocab size (including OOV) per pair, in canonical pair order.
  std::vector<size_t> cross_vocab_sizes;

  /// Third-order extension (paper §II-B1: "our methods could easily be
  /// extended to higher-order"): cross-product transformed features for a
  /// chosen set of categorical field triples. Row-major
  /// [num_rows × triple_fields.size()].
  std::vector<std::array<size_t, 3>> triple_fields;
  std::vector<int32_t> triple_ids;
  std::vector<size_t> triple_vocab_sizes;

  /// Optional per-field frequency-ranked id lists (most frequent first),
  /// fitted by FittedEncoder::Fit — exact ranked counts over the fit
  /// rows, or the Misra-Gries hot ids of a hashed encode — and attached
  /// by Transform or carried through the shard MANIFEST. Tier plans for
  /// frequency-tiered embedding backends read ONLY this metadata (never
  /// the rows), so a model built from a metadata-only streaming dataset
  /// resolves the same plan as one built from the same data in RAM.
  /// Empty (or shorter than the field count) when no stats exist.
  std::vector<std::vector<int32_t>> cat_hot_ids;
  std::vector<std::vector<int32_t>> cross_hot_ids;

  size_t num_categorical() const { return schema.num_categorical(); }
  size_t num_continuous() const { return schema.num_continuous(); }
  size_t num_pairs() const { return schema.num_pairs(); }
  bool has_cross() const { return !cross_ids.empty(); }
  size_t num_triples() const { return triple_fields.size(); }
  bool has_triples() const { return !triple_ids.empty(); }

  int32_t cat(size_t row, size_t cat_field) const {
    return cat_ids[row * num_categorical() + cat_field];
  }
  float cont(size_t row, size_t cont_field) const {
    return cont_values[row * num_continuous() + cont_field];
  }
  int32_t cross(size_t row, size_t pair) const {
    return cross_ids[row * num_pairs() + pair];
  }
  int32_t triple(size_t row, size_t t) const {
    return triple_ids[row * num_triples() + t];
  }
  float label(size_t row) const { return labels[row]; }

  /// Total distinct values across original categorical fields
  /// (Table II "#orig value").
  size_t TotalOrigVocab() const;
  /// Total distinct values across cross-product transformed features
  /// (Table II "#cross value").
  size_t TotalCrossVocab() const;
  /// Fraction of positive labels (Table II "pos ratio").
  double PositiveRatio() const;
};

}  // namespace optinter

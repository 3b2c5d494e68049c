// Encoding options and the one-shot in-RAM encode.
//
// Statistics (vocabularies, continuous min/max, cross-product
// vocabularies, frequency stats) are fitted on the training rows only, by
// FittedEncoder::Fit (fitted_encoder.h) — the one fit; validation/test
// rows are transformed with the fitted state so unseen values fall into
// OOV, mirroring deployment conditions.

#pragma once

#include <array>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"

namespace optinter {

/// Every fit setting of FittedEncoder::Fit.
struct EncoderOptions {
  /// Min occurrences for an original categorical value to escape OOV
  /// (paper: 20 on Criteo, 5 on Avazu).
  size_t cat_min_count = 4;
  /// Min occurrences for a cross-product value (pair or triple) to escape
  /// OOV.
  size_t cross_min_count = 10;
  /// Ids per field kept in the frequency-stats metadata
  /// (EncodedDataset::cat_hot_ids / cross_hot_ids), fitted on the fit
  /// rows — the hot-set source for frequency-tiered embedding backends.
  /// 0 disables stats.
  size_t freq_stats_topk = 128;
  /// Fit and encode cross-product transformed features for every
  /// categorical pair (paper Eq. 4): the pair of encoded ids becomes a
  /// new categorical value with its own vocabulary. Needed by Poly2,
  /// OptInter-M and every search run.
  bool build_cross = true;
  /// Third-order crosses (the paper's higher-order extension, §II-B1)
  /// for these categorical field triples, each {i, j, k} with
  /// i < j < k < #categorical; thresholded at cross_min_count.
  std::vector<std::array<size_t, 3>> triples;
  /// Frequency-capped hashing (hash_encoder.h) instead of exact
  /// vocabularies, for unbounded value spaces: the top `hash_hot_values`
  /// values of each field and cross get collision-free ids, the tail
  /// shares `hash_buckets` slots.
  bool hashed = false;
  size_t hash_hot_values = 1024;
  size_t hash_buckets = 1 << 16;
};

/// Fits a FittedEncoder on `fit_rows` of `raw` and transforms the whole
/// dataset with it. Vocabulary ids are assigned in sorted order and
/// min-max is order-free, so the order of `fit_rows` does not matter
/// (hashed mode's hot set does depend on it).
Result<EncodedDataset> EncodeDataset(const RawDataset& raw,
                                     const std::vector<size_t>& fit_rows,
                                     const EncoderOptions& options);

}  // namespace optinter

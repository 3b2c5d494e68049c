// Out-of-core encoding: RowSource -> FittedEncoder -> shard dir.
//
// StreamEncodeToShards only ever holds one row plus the fitted state. It
// fits a FittedEncoder (fitted_encoder.h) on the stream prefix — one pass
// for the categorical vocabularies and continuous min-max, one more for
// the cross vocabularies when crosses or triples are requested — and then
// makes one pass that encodes every row with FittedEncoder::EncodeRow and
// appends it to a ShardWriter. Its output is therefore the in-RAM
// encoder's output for the same fit rows, hot ids included.
//
// Exact vocabularies take O(distinct values) memory, so they suit bounded
// vocabularies. Hashed mode (`hashed = true`) bounds memory for unbounded
// ones with frequency-capped hashing (hash_encoder.h): the top
// `hash_hot_values` values per field get collision-free ids, the tail
// shares `hash_buckets` slots. Collision statistics are accumulated per
// encode and published to the obs counters encode.hash_rows /
// encode.hash_hot_rows / encode.hash_collision_rows, so the run report
// shows how much signal the trick destroyed.
//
// Fitting uses the stream PREFIX (first fit_fraction of rows) rather than
// a shuffled sample: the streaming trainer splits train/val/test
// contiguously in stream order, so the prefix is exactly the training
// split and unseen values in val/test fall into OOV, as in the in-RAM
// pipeline.

#pragma once

#include <cstdint>
#include <string>

#include "common/status.h"
#include "data/encoder.h"
#include "data/fitted_encoder.h"
#include "data/hash_encoder.h"

namespace optinter {

/// The fit settings plus where the fit stops and how rows are sharded.
struct StreamEncodeOptions : EncoderOptions {
  /// Prefix fraction of the stream used for fitting; must match the
  /// training split fraction used later.
  double fit_fraction = 0.7;
  size_t rows_per_shard = 1 << 17;
};

/// What the encode did; hash stats are zero in exact mode.
struct StreamEncodeStats {
  size_t rows = 0;
  size_t fit_rows = 0;
  HashEncodeStats cat_hash;
  /// Pair and triple crosses.
  HashEncodeStats cross_hash;
};

/// Encodes `source` into shard directory `dir` (which must exist and hold
/// no dataset). Makes 2 sequential passes (3 with crosses or triples).
Result<StreamEncodeStats> StreamEncodeToShards(
    RowSource* source, const std::string& dir,
    const StreamEncodeOptions& options);

}  // namespace optinter

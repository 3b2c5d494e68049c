// The one encoder fit: FittedEncoder::Fit reads the first n rows of a
// RowSource and fits every statistic the encoded dataset carries —
// categorical vocabularies (exact with min-count OOV, or frequency-capped
// hashing), continuous min/max, pair and requested triple cross-product
// vocabularies over the encoded ids, and the frequency-ranked hot ids
// that tiered embedding backends plan from. EncodeRow then encodes one
// raw row with that state, and every encode path is Fit + EncodeRow:
// Transform over an in-RAM RawDataset (EncodeDataset in encoder.h fits on
// the train rows first), and StreamEncodeToShards (stream_encode.h) over
// a streamed source into shard files.
//
// The fitted state saves and loads (OENC version 2, CRC-protected), so a
// serving process encodes raw requests into exactly the id space the
// model's embedding tables were trained on.

#pragma once

#include <array>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"
#include "data/encoder.h"
#include "data/hash_encoder.h"
#include "data/vocab.h"

namespace optinter {

/// Fitted encoding state.
class FittedEncoder {
 public:
  /// Min/max of one continuous field, fitted on training rows.
  struct ContStats {
    float min = 0.0f;
    float max = 1.0f;
  };

  /// Bucket-collision accounting over EncodeRow calls of a hashed
  /// encoder: categorical fields count into `cat`, pair and triple
  /// crosses into `cross`.
  struct HashCollisions {
    explicit HashCollisions(const FittedEncoder& encoder);
    HashEncodeStats cat;
    HashEncodeStats cross;
    std::vector<BucketCollisionTracker> trackers;  // one per vocabulary
  };

  /// Fits on the first `n` rows `source` yields after a Restart: one pass
  /// for the categorical vocabularies and continuous min/max, and one
  /// more for the cross vocabularies when pairs or triples are requested.
  /// A triple over a field with more than 2^21 ids returns OutOfRange
  /// (triple keys pack three ids into 21 bits each).
  static Result<FittedEncoder> Fit(RowSource* source, size_t n,
                                   const EncoderOptions& options);

  /// Encodes one raw row (`cat`: num_categorical raw values, `cont`:
  /// num_continuous). Writes the field ids to `cat_ids`, the pair cross
  /// ids to `cross_ids` and the triple ids to `triple_ids` (each may be
  /// null when there is nothing to write), and the normalized continuous
  /// values to `cont_out`. Unseen values map to OOV; continuous values are
  /// clamped into [0, 1].
  void EncodeRow(const int64_t* cat, const float* cont, int32_t* cat_ids,
                 int32_t* cross_ids, int32_t* triple_ids, float* cont_out,
                 HashCollisions* collisions = nullptr) const;

  /// Encodes a dataset with the fitted state. The dataset's schema must
  /// match the fitted schema (field names and types, in order). The
  /// output carries crosses and triples iff they were fitted, and the
  /// fitted hot ids.
  Result<EncodedDataset> Transform(const RawDataset& raw) const;

  /// The fitted metadata as a row-free EncodedDataset: schema, vocabulary
  /// sizes, triple fields and hot ids.
  EncodedDataset Metadata() const;

  /// Persists the fitted state (binary, OENC version 2).
  Status Save(const std::string& path) const;
  /// Restores a fitted encoder saved by Save(). Every count is checked
  /// against the schema and the bytes left, and a whole-file CRC mismatch
  /// returns Corruption.
  static Result<FittedEncoder> Load(const std::string& path);
  /// Load's parser over the file's bytes, held in memory; `path` names
  /// them in error messages.
  static Result<FittedEncoder> Parse(std::string_view bytes,
                                     const std::string& path);

  const DatasetSchema& schema() const { return schema_; }
  bool hashed() const { return hashed_; }
  bool has_cross() const { return num_pairs_ > 0; }

 private:
  // One fitted vocabulary — a categorical field's or a cross's — exact
  // or hashed.
  struct Column {
    Vocab exact;
    std::optional<HashedVocab> hashed;

    size_t size() const {
      return hashed ? hashed->vocab_size() : exact.size();
    }
    void Add(int64_t value);
    // Freezes the vocabulary; returns its `topk` most frequent ids over
    // the fit rows, most frequent first.
    std::vector<int32_t> Finalize(size_t min_count, size_t topk);
    int32_t Encode(int64_t value) const {
      return hashed ? hashed->Encode(static_cast<uint64_t>(value))
                    : exact.Encode(value);
    }
  };

  // A cross: the categorical fields whose encoded ids it combines (a pair
  // leaves fields[2] unused).
  struct Cross {
    size_t arity = 2;
    std::array<size_t, 3> fields{};

    // The vocabulary key of the fields' encoded ids: (a << 32) | b for a
    // pair, 21 bits per id for a triple. Keys built on encoded ids make
    // an OOV field value yield OOV-involving cross keys, as in the
    // paper's pipeline where transforms run after original-feature OOV.
    int64_t Key(const int32_t* ids) const {
      const int64_t a = ids[fields[0]];
      if (arity == 2) {
        return (a << 32) |
               static_cast<int64_t>(static_cast<uint32_t>(ids[fields[1]]));
      }
      return (a << 42) | (static_cast<int64_t>(ids[fields[1]]) << 21) |
             static_cast<int64_t>(ids[fields[2]]);
    }
  };

  // Lays out the crosses (all pairs with `build_cross`, then `triples`)
  // and one empty vocabulary per field and cross.
  void Layout(bool build_cross, std::vector<std::array<size_t, 3>> triples);
  HashEncoderOptions HashOptions(size_t column) const;
  Status CheckTripleKeyRange() const;

  DatasetSchema schema_;
  bool hashed_ = false;
  size_t hash_hot_values_ = 0;
  size_t hash_buckets_ = 0;
  // Categorical fields, then pair crosses in canonical order, then the
  // triples.
  std::vector<Column> vocabs_;
  std::vector<Cross> crosses_;
  size_t num_pairs_ = 0;  // pair crosses; 0 without build_cross
  std::vector<std::array<size_t, 3>> triples_;
  std::vector<ContStats> cont_stats_;
  std::vector<std::vector<int32_t>> cat_hot_ids_;
  std::vector<std::vector<int32_t>> cross_hot_ids_;
};

}  // namespace optinter

// Hash-trick categorical encoding for unbounded vocabularies.
//
// The exact Vocab path (vocab.h) needs every distinct value in memory,
// which breaks down on unbounded id spaces (ad ids, device ids). The
// hashed path bounds the table instead:
//
//   * a frequency-capped "hot set": the top-K most frequent values get
//     dedicated collision-free ids (tracked online with Misra-Gries, so
//     one streaming pass suffices);
//   * everything else hashes into `num_buckets` shared slots.
//
// Encoded id layout: 0 = reserved OOV (never produced, kept so hashed
// vocabularies compose with the exact path's 0-is-OOV convention),
// 1..K = hot values, K+1..K+B = hash buckets. vocab_size() = 1 + K + B.
//
// Collisions are observable, not silent: EncodeWithStats counts rows
// whose bucket was first claimed by a *different* value, and the
// streaming encoder surfaces the totals through src/obs and the run
// report. The expected collision mass is the classic balls-in-bins bound
// — V distinct tail values into B buckets leaves B(1 - (1 - 1/B)^V)
// occupied — which the statistical test checks against.

#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace optinter {

/// Deterministic 64-bit mix of (value, salt); SplitMix64 finalizer.
/// Stability matters: encoded datasets persist across builds, so this
/// hash is pinned by a golden test and must never change.
uint64_t ShardStableHash64(uint64_t value, uint64_t salt);

struct HashEncoderOptions {
  /// Dedicated ids for the most frequent values. 0 disables the hot set.
  size_t hot_values = 0;
  /// Shared bucket count for the hashed tail. Must be positive.
  size_t num_buckets = 1 << 16;
  /// Per-field salt so identical raw values in different fields land in
  /// uncorrelated buckets.
  uint64_t salt = 0;
};

/// Per-field accumulated collision statistics from EncodeWithStats.
struct HashEncodeStats {
  /// Rows routed through a shared bucket (not hot).
  size_t hashed_rows = 0;
  /// Hashed rows whose bucket was first claimed by a different value.
  size_t collision_rows = 0;
  /// Rows that hit the hot set.
  size_t hot_rows = 0;

  void Merge(const HashEncodeStats& other) {
    hashed_rows += other.hashed_rows;
    collision_rows += other.collision_rows;
    hot_rows += other.hot_rows;
  }
};

/// One categorical field's hashed vocabulary. Build in two phases:
/// stream values through Observe(), then Finalize() to freeze the hot
/// set, then Encode() — same shape as Vocab's Add/Finalize/Encode.
class HashedVocab {
 public:
  explicit HashedVocab(const HashEncoderOptions& options);

  /// Frequency-tracking pass (Misra-Gries summary with capacity
  /// max(4 * hot_values, 64); deterministic given the value stream).
  void Observe(uint64_t value);

  /// Freezes the hot set: top hot_values survivors of the summary,
  /// ordered by (count desc, value asc) for determinism.
  void Finalize();

  /// Encodes one value. Must be Finalize()d first.
  int32_t Encode(uint64_t value) const;

  /// Total id space: 1 (reserved OOV) + hot set + buckets.
  size_t vocab_size() const { return 1 + hot_ids_.size() + options_.num_buckets; }
  size_t num_hot() const { return hot_ids_.size(); }

  bool IsHot(uint64_t value) const {
    return hot_ids_.find(value) != hot_ids_.end();
  }

  /// The hot values of a finalized vocabulary in id order (element i has
  /// id i + 1). For serialization.
  std::vector<uint64_t> HotValues() const;

  /// Rebuilds a finalized vocabulary from HotValues() output. Refuses
  /// zero buckets, more hot values than options.hot_values, and repeats.
  static Result<HashedVocab> FromHotValues(const HashEncoderOptions& options,
                                           const std::vector<uint64_t>& hot);

 private:
  HashEncoderOptions options_;
  bool finalized_ = false;
  // Misra-Gries summary: value -> approximate count.
  std::unordered_map<uint64_t, size_t> summary_;
  size_t summary_capacity_;
  // value -> dedicated id (1-based), populated by Finalize().
  std::unordered_map<uint64_t, int32_t> hot_ids_;
};

/// Tracks first-claimant collisions for one field's bucket range: a row
/// counts as colliding when its bucket was first claimed by a *different*
/// raw value (so repeated rows of one value never count). Flat arrays —
/// O(num_buckets) memory per field — so tracking stays cheap at
/// tens-of-millions-of-rows encode scale.
class BucketCollisionTracker {
 public:
  explicit BucketCollisionTracker(const HashedVocab& vocab);

  /// Accounts one encoded row; `id` must come from vocab.Encode(value).
  void Record(int32_t id, uint64_t value, HashEncodeStats* stats);

 private:
  size_t first_bucket_id_;  // 1 + num_hot; ids below it are hot
  std::vector<uint64_t> claimant_;
  std::vector<uint8_t> occupied_;
};

}  // namespace optinter

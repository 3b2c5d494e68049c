// Vocabulary building with min-count OOV thresholding.
//
// The paper's preprocessing (§III-A1) maps both categorical features and
// cross-product transformed features that appear fewer than a threshold
// number of times (20 on Criteo, 5 on Avazu) to a single out-of-vocabulary
// dummy feature. Vocab reserves id 0 for OOV; real values get ids >= 1.

#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

namespace optinter {

/// Frequency-thresholded dictionary from raw 64-bit values to dense ids.
class Vocab {
 public:
  /// Id reserved for out-of-vocabulary / infrequent values.
  static constexpr int32_t kOovId = 0;

  /// Counts one occurrence of `value` (fit phase).
  void Add(int64_t value) { ++counts_[value]; }

  /// Freezes the vocabulary: values with count >= min_count receive dense
  /// ids 1..K in ascending value order; everything else maps to kOovId.
  /// Counting data is released. With `id_counts`, first stores the fit
  /// count of every id: (*id_counts)[k] for k >= 1 is its value's count,
  /// (*id_counts)[0] the total count of the values that fell into OOV —
  /// exactly the encoded-id counts over the fit rows.
  void Finalize(size_t min_count, std::vector<size_t>* id_counts = nullptr);

  /// Encodes a value; unseen or infrequent values map to kOovId.
  /// Must be called after Finalize().
  int32_t Encode(int64_t value) const;

  /// Total number of ids including OOV (i.e. max id + 1).
  size_t size() const { return next_id_; }

  bool finalized() const { return finalized_; }

  /// (value, id) entries of a finalized vocab, sorted by id. For
  /// serialization.
  std::vector<std::pair<int64_t, int32_t>> Items() const;

  /// Rebuilds a finalized vocab from Items() output. Ids must be the
  /// dense range 1..items.size() in order.
  static Vocab FromItems(
      const std::vector<std::pair<int64_t, int32_t>>& items);

 private:
  std::unordered_map<int64_t, size_t> counts_;
  std::unordered_map<int64_t, int32_t> ids_;
  size_t next_id_ = 1;  // 0 is OOV
  bool finalized_ = false;
};

}  // namespace optinter

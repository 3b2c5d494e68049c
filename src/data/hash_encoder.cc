#include "data/hash_encoder.h"

#include <algorithm>

#include "common/logging.h"

namespace optinter {

uint64_t ShardStableHash64(uint64_t value, uint64_t salt) {
  // SplitMix64 finalizer over value xor a salt spread by the golden
  // gamma. Pinned by the golden test in hash_encoder_test.cc.
  uint64_t z = value ^ (salt * 0x9E3779B97F4A7C15ULL);
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

HashedVocab::HashedVocab(const HashEncoderOptions& options)
    : options_(options),
      summary_capacity_(std::max<size_t>(4 * options.hot_values, 64)) {
  CHECK_GT(options_.num_buckets, 0u);
}

void HashedVocab::Observe(uint64_t value) {
  CHECK(!finalized_);
  if (options_.hot_values == 0) return;
  auto it = summary_.find(value);
  if (it != summary_.end()) {
    ++it->second;
    return;
  }
  if (summary_.size() < summary_capacity_) {
    summary_.emplace(value, 1);
    return;
  }
  // Misra-Gries decrement step: no free slot, so every tracked count
  // pays one; zeros are evicted. Heavy hitters (freq > N / capacity)
  // are guaranteed to survive the stream.
  for (auto st = summary_.begin(); st != summary_.end();) {
    if (--st->second == 0) {
      st = summary_.erase(st);
    } else {
      ++st;
    }
  }
}

void HashedVocab::Finalize() {
  CHECK(!finalized_);
  finalized_ = true;
  if (options_.hot_values == 0 || summary_.empty()) {
    summary_.clear();
    return;
  }
  std::vector<std::pair<uint64_t, size_t>> items(summary_.begin(),
                                                 summary_.end());
  summary_.clear();
  std::sort(items.begin(), items.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  const size_t k = std::min(options_.hot_values, items.size());
  hot_ids_.reserve(k);
  for (size_t i = 0; i < k; ++i) {
    hot_ids_.emplace(items[i].first, static_cast<int32_t>(1 + i));
  }
}

int32_t HashedVocab::Encode(uint64_t value) const {
  CHECK(finalized_);
  auto it = hot_ids_.find(value);
  if (it != hot_ids_.end()) return it->second;
  const uint64_t h = ShardStableHash64(value, options_.salt);
  return static_cast<int32_t>(1 + hot_ids_.size() +
                              h % options_.num_buckets);
}

std::vector<uint64_t> HashedVocab::HotValues() const {
  CHECK(finalized_);
  std::vector<uint64_t> hot(hot_ids_.size());
  for (const auto& [value, id] : hot_ids_) {
    hot[static_cast<size_t>(id - 1)] = value;
  }
  return hot;
}

Result<HashedVocab> HashedVocab::FromHotValues(
    const HashEncoderOptions& options, const std::vector<uint64_t>& hot) {
  if (options.num_buckets == 0) {
    return Status::Invalid("hashed vocabulary needs at least one bucket");
  }
  if (hot.size() > options.hot_values) {
    return Status::Invalid("more hot values than the hot-set size");
  }
  HashedVocab v(options);
  v.finalized_ = true;
  v.hot_ids_.reserve(hot.size());
  for (size_t i = 0; i < hot.size(); ++i) {
    if (!v.hot_ids_.emplace(hot[i], static_cast<int32_t>(i + 1)).second) {
      return Status::Invalid("repeated hot value");
    }
  }
  return v;
}

BucketCollisionTracker::BucketCollisionTracker(const HashedVocab& vocab)
    : first_bucket_id_(1 + vocab.num_hot()),
      claimant_(vocab.vocab_size() - first_bucket_id_),
      occupied_(claimant_.size(), 0) {}

void BucketCollisionTracker::Record(int32_t id, uint64_t value,
                                    HashEncodeStats* stats) {
  if (static_cast<size_t>(id) < first_bucket_id_) {
    ++stats->hot_rows;
    return;
  }
  ++stats->hashed_rows;
  const size_t bucket = static_cast<size_t>(id) - first_bucket_id_;
  if (!occupied_[bucket]) {
    occupied_[bucket] = 1;
    claimant_[bucket] = value;
  } else if (claimant_[bucket] != value) {
    ++stats->collision_rows;
  }
}

}  // namespace optinter

#include "data/vocab.h"

#include <algorithm>

#include "common/logging.h"

namespace optinter {

void Vocab::Finalize(size_t min_count, std::vector<size_t>* id_counts) {
  CHECK(!finalized_);
  // Deterministic id assignment: sort surviving values.
  std::vector<int64_t> kept;
  kept.reserve(counts_.size());
  size_t oov_count = 0;
  for (const auto& [value, count] : counts_) {
    if (count >= min_count) {
      kept.push_back(value);
    } else {
      oov_count += count;
    }
  }
  std::sort(kept.begin(), kept.end());
  ids_.reserve(kept.size());
  if (id_counts != nullptr) {
    id_counts->assign(1, oov_count);
    id_counts->reserve(1 + kept.size());
  }
  for (int64_t v : kept) {
    ids_.emplace(v, static_cast<int32_t>(next_id_++));
    if (id_counts != nullptr) id_counts->push_back(counts_[v]);
  }
  counts_.clear();
  finalized_ = true;
}

std::vector<std::pair<int64_t, int32_t>> Vocab::Items() const {
  CHECK(finalized_);
  std::vector<std::pair<int64_t, int32_t>> items(ids_.begin(), ids_.end());
  std::sort(items.begin(), items.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  return items;
}

Vocab Vocab::FromItems(
    const std::vector<std::pair<int64_t, int32_t>>& items) {
  Vocab v;
  for (const auto& [value, id] : items) {
    CHECK_EQ(static_cast<size_t>(id), v.next_id_);
    v.ids_.emplace(value, id);
    ++v.next_id_;
  }
  v.finalized_ = true;
  return v;
}

int32_t Vocab::Encode(int64_t value) const {
  CHECK(finalized_);
  auto it = ids_.find(value);
  return it == ids_.end() ? kOovId : it->second;
}

}  // namespace optinter

#include "models/prepared_batch.h"

namespace optinter {

void PreparedBatch::BeginFill(const Batch& batch) {
  size = batch.size;
  labels.clear();
  for (size_t k = 0; k < batch.size; ++k) labels.push_back(batch.label(k));
}

size_t PreparedBatch::CapacityBytes() const {
  size_t total = labels.capacity() * sizeof(float) +
                 cont.capacity() * sizeof(float) + dedup.CapacityBytes();
  for (const auto& pt : cat) total += pt.CapacityBytes();
  for (const auto& pt : first_order) total += pt.CapacityBytes();
  for (const auto& pt : cross) total += pt.CapacityBytes();
  for (const auto& pt : triple) total += pt.CapacityBytes();
  return total;
}

}  // namespace optinter

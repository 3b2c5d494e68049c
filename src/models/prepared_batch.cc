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

void ScatterPreparedBucket(const PreparedTable& pt, size_t shard,
                           const Tensor& d_out, size_t col,
                           EmbeddingTable* table) {
  for (const int32_t k : pt.shard_rows[shard]) {
    const size_t row = static_cast<size_t>(k);
    table->AccumulatePreparedGradPrimary(static_cast<size_t>(pt.slots[row]),
                                         pt.ids[row], d_out.row(row) + col);
  }
  if (!table->HasSecondary()) return;
  for (const int32_t k : pt.shard_rows2[shard]) {
    const size_t row = static_cast<size_t>(k);
    table->AccumulatePreparedGradSecondary(
        static_cast<size_t>(pt.slots2[row]), pt.ids[row],
        d_out.row(row) + col);
  }
}

}  // namespace optinter

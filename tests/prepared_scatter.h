// Drives one EmbeddingTable through the training step's gradient path
// outside any embedding layer: the tests of the table's gradient store.

#pragma once

#include <vector>

#include "models/prepared_batch.h"
#include "nn/embedding.h"
#include "tensor/tensor.h"

namespace optinter {
namespace testing {

/// A [rows.size() × width] gradient tensor from literal rows.
inline Tensor GradRows(const std::vector<std::vector<float>>& rows) {
  Tensor t({rows.size(), rows.front().size()});
  for (size_t k = 0; k < rows.size(); ++k) {
    for (size_t i = 0; i < rows[k].size(); ++i) t.at(k, i) = rows[k][i];
  }
  return t;
}

/// Batch row k has logical id ids[k] and upstream gradient grads.row(k)
/// (grads is [ids.size() × table->dim()]). Prepares the ids into `pt`
/// (PrepareTableIds), arms the table's slot buffer (BeginPreparedScatter)
/// and runs every shard bucket (ScatterPreparedBucket). The scatter stays
/// armed: read it with PreparedGradOfRow, end it with
/// SparseAdamStepPrepared or ClearPreparedGrads. `pt` holds the slot
/// rows, so it must outlive the scatter.
inline void ScatterIntoTable(EmbeddingTable* table,
                             const std::vector<int32_t>& ids,
                             const Tensor& grads, PreparedTable* pt) {
  IdDedupScratch dedup;
  PrepareTableIds(
      *table, ids.size(), [&](size_t k) { return ids[k]; }, &dedup, pt);
  table->BeginPreparedScatter(pt->unique_rows.data(), pt->unique_rows.size());
  for (size_t shard = 0; shard < EmbeddingTable::kGradShards; ++shard) {
    ScatterPreparedBucket(*pt, shard, grads, 0, table);
  }
}

/// The armed scatter's summed gradient of backing row `row`, or nullptr
/// when no batch row touched it.
inline const float* PreparedGradOfRow(const EmbeddingTable& table,
                                      const PreparedTable& pt, int32_t row) {
  for (size_t slot = 0; slot < pt.unique_rows.size(); ++slot) {
    if (pt.unique_rows[slot] == row) return table.PreparedGrad(slot);
  }
  return nullptr;
}

}  // namespace testing
}  // namespace optinter

// Weight-independent per-batch preparation: phase 1 of every training step.
//
// PrepareBatch (CtrModel, models/model.h; DESIGN.md) does
// everything a step needs that depends only on the dataset and the batch's
// row ids — label gather, per-table cross-product id lookup, and per-table
// unique-id dedup with slot assignment — so it can run on the pool for
// batch t+1 while batch t is still in ForwardBackward. The dedup output
// feeds EmbeddingTable's prepared scatter: the backward pass writes into a
// flat slot-addressed buffer (no hashing, no per-new-id allocation) and the
// sparse optimizer walks (unique_rows, slots) directly.
//
// All buffers retain capacity across steps: a PreparedBatch reused for
// same-shaped batches performs zero heap allocations after warmup.

#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/thread_pool.h"
#include "data/batch.h"
#include "nn/embedding.h"
#include "tensor/tensor.h"

namespace optinter {

/// Reusable open-addressing id→slot map (linear probing, power-of-two
/// capacity, generation stamps instead of per-round clearing). One scratch
/// instance serves every table of a PreparedBatch sequentially.
class IdDedupScratch {
 public:
  /// Starts a new dedup round expecting up to `expected` inserts. Grows
  /// the table to keep load factor <= 0.5; never shrinks.
  void Begin(size_t expected) {
    size_t want = 16;
    const size_t target = expected < 8 ? 16 : expected * 2;
    while (want < target) want <<= 1;
    if (want > keys_.size()) {
      keys_.assign(want, 0);
      slot_of_.assign(want, 0);
      stamps_.assign(want, 0);
      round_ = 0;
    }
    mask_ = keys_.size() - 1;
    if (++round_ == 0) {
      // uint32 wraparound: stale stamps could collide with a reused round
      // value, so wipe once every ~4 billion rounds.
      std::fill(stamps_.begin(), stamps_.end(), 0u);
      round_ = 1;
    }
  }

  /// Slot of `id` this round; assigns the next slot (appending to
  /// `unique`) on first sight.
  int32_t SlotFor(int32_t id, std::vector<int32_t>* unique) {
    size_t h = (static_cast<uint32_t>(id) * 2654435761u) & mask_;
    for (;;) {
      if (stamps_[h] != round_) {
        stamps_[h] = round_;
        keys_[h] = id;
        const int32_t slot = static_cast<int32_t>(unique->size());
        slot_of_[h] = slot;
        unique->push_back(id);
        return slot;
      }
      if (keys_[h] == id) return slot_of_[h];
      h = (h + 1) & mask_;
    }
  }

  size_t CapacityBytes() const {
    return keys_.capacity() * sizeof(int32_t) +
           slot_of_.capacity() * sizeof(int32_t) +
           stamps_.capacity() * sizeof(uint32_t);
  }

 private:
  std::vector<int32_t> keys_;
  std::vector<int32_t> slot_of_;
  std::vector<uint32_t> stamps_;
  uint32_t round_ = 0;
  size_t mask_ = 0;
};

/// Per-(batch, embedding table) id preparation: the raw per-row logical
/// ids, each row's dedup slot, the unique BACKING-row list (slot order),
/// and the batch rows bucketed by gradient shard. Dedup runs in backing
/// space — the table's logical→backing mapping is static configuration,
/// never weights, so the weight-independent Prepare contract holds — and
/// shards are keyed on backing rows, so logical ids that collide on a
/// backing row (QR remainder reuse, tiered bucket sharing) share one slot
/// and accumulate deterministically. QR tables contribute two parts per
/// row: the primary (quotient) part through slots/shard_rows and the
/// secondary (remainder) part through slots2/shard_rows2; Q- and R-space
/// backing rows are disjoint, so the two streams never alias a slot.
/// Shard buckets hold rows in ascending order, so a scatter that walks a
/// bucket (ScatterPreparedBucket) sums every backing row's gradient in
/// batch-row order, whichever thread runs the bucket.
struct PreparedTable {
  std::vector<int32_t> ids;          // [batch_size] logical id of row k
  std::vector<int32_t> slots;        // [batch_size] primary-part slot
  std::vector<int32_t> slots2;       // [batch_size] secondary slot (QR only)
  std::vector<int32_t> unique_rows;  // [num_unique] backing row of each slot
  std::array<std::vector<int32_t>, EmbeddingTable::kGradShards> shard_rows;
  std::array<std::vector<int32_t>, EmbeddingTable::kGradShards> shard_rows2;

  void Clear() {
    ids.clear();
    slots.clear();
    slots2.clear();
    unique_rows.clear();
    for (auto& v : shard_rows) v.clear();
    for (auto& v : shard_rows2) v.clear();
  }

  size_t CapacityBytes() const {
    size_t total = (ids.capacity() + slots.capacity() + slots2.capacity() +
                    unique_rows.capacity()) *
                   sizeof(int32_t);
    for (const auto& v : shard_rows) total += v.capacity() * sizeof(int32_t);
    for (const auto& v : shard_rows2) {
      total += v.capacity() * sizeof(int32_t);
    }
    return total;
  }
};

/// Fills `pt` for `table` from `id_of(k)` (the logical id of batch row k).
template <typename IdFn>
void PrepareTableIds(const EmbeddingTable& table, size_t batch_size,
                     IdFn&& id_of, IdDedupScratch* dedup, PreparedTable* pt) {
  pt->Clear();
  const bool two_part = table.HasSecondary();
  dedup->Begin(two_part ? 2 * batch_size : batch_size);
  for (size_t k = 0; k < batch_size; ++k) {
    const int32_t id = id_of(k);
    table.CheckId(id, "Prepare");
    pt->ids.push_back(id);
    const int32_t b1 = table.PrimaryRowOf(id);
    pt->slots.push_back(dedup->SlotFor(b1, &pt->unique_rows));
    pt->shard_rows[EmbeddingTable::ShardOf(b1)].push_back(
        static_cast<int32_t>(k));
    if (two_part) {
      const int32_t b2 = table.SecondaryRowOf(id);
      pt->slots2.push_back(dedup->SlotFor(b2, &pt->unique_rows));
      pt->shard_rows2[EmbeddingTable::ShardOf(b2)].push_back(
          static_cast<int32_t>(k));
    }
  }
}

/// Rows × floats below which the embedding layers' gathers and scatters
/// stay serial: both are memory-bound, so only sizeable batches amortize
/// the pool handoff.
inline constexpr size_t kParallelEmbeddingFloats = 1u << 15;

/// Scatters one (table, shard) bucket of d_out's column block
/// [col, col + dim) into `table`'s prepared slots: the batch rows whose
/// primary backing row lands in `shard`, then (QR) those whose secondary
/// row does, each in ascending row order — so every backing row sums its
/// contributions in batch-row order. Distinct shards own disjoint slots,
/// so buckets may run concurrently.
void ScatterPreparedBucket(const PreparedTable& pt, size_t shard,
                           const Tensor& d_out, size_t col,
                           EmbeddingTable* table);

/// Calls scatter_bucket(t, shard) for every table t < num_tables and
/// every gradient shard, fanned across the pool when the scattered
/// gradient holds at least kParallelEmbeddingFloats floats. A bucket's
/// result does not depend on which thread runs it, so the fan-out is
/// bit-identical to the serial walk.
template <typename BucketFn>
void RunScatterBuckets(size_t num_tables, size_t grad_floats,
                       BucketFn&& scatter_bucket) {
  constexpr size_t kShards = EmbeddingTable::kGradShards;
  const size_t num_buckets = num_tables * kShards;
  auto run = [&](size_t lo, size_t hi) {
    for (size_t b = lo; b < hi; ++b) scatter_bucket(b / kShards, b % kShards);
  };
  if (grad_floats >= kParallelEmbeddingFloats && num_buckets > 1) {
    ParallelForChunks(0, num_buckets, run, /*min_chunk=*/1);
  } else {
    run(0, num_buckets);
  }
}

/// Everything PrepareBatch produces for one batch. Owned by a
/// StepWorkspace in the pipelined executor (or by CtrModel for serial
/// TrainStep calls) and reused across steps.
struct PreparedBatch {
  size_t size = 0;
  std::vector<float> labels;   // [size]
  std::vector<PreparedTable> cat;     // per categorical field
  // Per categorical field, for a model's second FeatureEmbedding: the
  // first-order weights of FM-family models and DeepFM.
  std::vector<PreparedTable> first_order;
  std::vector<float> cont;            // [size × num_cont] feature values
  std::vector<PreparedTable> cross;   // per embedded pair
  std::vector<PreparedTable> triple;  // per embedded triple
  IdDedupScratch dedup;

  /// Starts a fill: the batch size and a copy of its labels. The batch's
  /// row pointer and dataset may be invalidated afterwards (e.g. by
  /// Batcher::StartEpoch or a recycled streaming buffer) — the prepared
  /// copy is self-contained.
  void BeginFill(const Batch& batch);

  /// Total heap capacity held (workspace gauge; growth here after warmup
  /// signals an allocation regression).
  size_t CapacityBytes() const;
};

}  // namespace optinter

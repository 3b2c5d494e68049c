// Out-of-core shard reading and streamed mini-batch production.
//
// StreamingReader mmaps shard files lazily, keeps a bounded resident set
// (pin-counted LRU; shards are unmapped when evicted, so RSS stays
// bounded even over multi-epoch random access), and verifies each shard's
// header + payload CRC once per reader lifetime, on first touch. Any
// mismatch — truncation, bit flips, garbage appended, a shard swapped in
// from another dataset — surfaces as a Status naming the file and the
// failing check; a batch is never half-filled.
//
// StreamingBatcher is the training BatchSource over a row range of a
// reader. Batches are filled into a small ring of reusable buffers by
// background thread-pool tasks, `prefetch_batches` ahead of the consumer,
// so shard IO overlaps with training compute on top of the pipeline
// executor's prepare/compute overlap. Evaluation does not use it: it
// FillBatch()es its own fixed batch grid concurrently (EvaluateModelStreamed,
// train/stream_trainer.h).
//
// Determinism: epoch row order is generated on the calling thread only
// (StartEpoch), from the batcher's own Rng — background tasks just copy
// rows — so the order depends on (seed, order mode, row range) and
// nothing else. kGlobalShuffle reproduces the in-RAM Batcher exactly:
// given the same seed and the same initial index vector, both apply the
// same cumulative Fisher-Yates reshuffle per epoch, so streamed training
// is bit-identical to in-RAM training (concurrency_test.cc pins this).
// kWindowShuffle trades global uniformity for shard locality: block order
// is shuffled globally, rows are shuffled within windows of
// `window_blocks` blocks, keeping the working set near
// window_blocks shards.

#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "data/batch.h"
#include "data/shard_format.h"

namespace optinter {

class StreamingReader {
 public:
  struct Options {
    /// Resident-set bound: mapped, unpinned shards above this count are
    /// evicted (LRU). Pinned shards never are, so the bound overshoots
    /// while concurrent FillBatch calls (prefetch tasks, the parallel
    /// streamed evaluation) pin more distinct shards than it allows; it
    /// holds again once they unpin.
    size_t max_resident_shards = 32;
    /// Verify each shard's payload CRC on first map. Costs one pass over
    /// the shard's bytes, once per reader lifetime.
    bool verify_crc = true;
  };

  /// Opens a shard directory: reads + fully validates the manifest
  /// (shard files are validated lazily, on first touch).
  static Result<std::unique_ptr<StreamingReader>> Open(
      const std::string& dir, const Options& options);
  static Result<std::unique_ptr<StreamingReader>> Open(
      const std::string& dir) {
    return Open(dir, Options());
  }

  ~StreamingReader();

  const ShardManifest& manifest() const { return manifest_; }
  size_t num_rows() const { return manifest_.num_rows; }

  /// Metadata-only EncodedDataset (schema + vocab sizes, num_rows, no row
  /// payload). Models are constructed against this; batch buffers carry
  /// the actual rows.
  const EncodedDataset& meta() const { return meta_; }

  /// Copies `n` global rows into `dst` as a batch-local EncodedDataset
  /// (row k of dst = rows[k] of the dataset). Thread-safe; buffers in
  /// `dst` are resized but retain capacity across calls. On error `dst`
  /// is truncated to zero rows — never half-filled.
  Status FillBatch(const size_t* rows, size_t n, EncodedDataset* dst);

  /// Reads the whole dataset into RAM: a copy of meta() (hot ids
  /// included) filled by FillBatch over rows [0, num_rows()). CRC-verified.
  /// For parity harnesses and small datasets.
  Result<EncodedDataset> Materialize();

  /// Shards currently mmapped (test hook for the residency bound).
  size_t resident_shards() const;

 private:
  struct MappedShard {
    const uint8_t* payload = nullptr;  // into the mapping, past the header
    void* map_base = nullptr;
    size_t map_bytes = 0;
    size_t pins = 0;
    uint64_t last_use = 0;
    bool verified = false;
  };

  StreamingReader(std::string dir, ShardManifest manifest, Options options);

  /// Pins shard `index`, mapping + validating it first if needed.
  /// Caller must Unpin. Called under no lock; locks internally.
  Result<const uint8_t*> Pin(size_t index);
  void Unpin(size_t index);
  Status MapAndValidateLocked(size_t index);
  void EvictIfNeededLocked();

  std::string dir_;
  ShardManifest manifest_;
  Options options_;
  EncodedDataset meta_;
  size_t row_width_ = 0;

  mutable std::mutex mutex_;
  std::vector<MappedShard> shards_;
  size_t resident_ = 0;
  uint64_t use_clock_ = 0;
};

/// BatchSource over a row range of a sharded dataset, with background
/// prefetch. See file comment for the determinism and ordering contract.
class StreamingBatcher : public BatchSource {
 public:
  enum class Order {
    /// Cumulative full-range Fisher-Yates per epoch; order-identical to
    /// an in-RAM Batcher seeded the same over the same index range.
    kGlobalShuffle,
    /// Shuffled block order + within-window row shuffle; working set is
    /// about `window_blocks` shards instead of the whole dataset.
    kWindowShuffle,
  };

  struct Options {
    size_t batch_size = 256;
    Order order = Order::kGlobalShuffle;
    uint64_t seed = 0;
    /// Fill tasks kept in flight ahead of the consumer (>= 1).
    size_t prefetch_batches = 2;
    /// kWindowShuffle: blocks per shuffle window.
    size_t window_blocks = 8;
    /// kWindowShuffle: rows per block; 0 = the manifest's rows_per_shard
    /// (one block == one shard, the locality sweet spot).
    size_t block_rows = 0;
  };

  /// Batches over global rows [begin, end) of `reader`. The reader must
  /// outlive the batcher and may be shared between batchers (it is
  /// thread-safe), but one batcher instance is single-consumer.
  StreamingBatcher(StreamingReader* reader, size_t begin, size_t end,
                   const Options& options);

  ~StreamingBatcher() override;

  void StartEpoch() override;
  Batch Next() override;
  size_t num_rows() const override { return end_ - begin_; }

  /// Sticky error. Next() returns an empty batch both at epoch end and on
  /// failure; callers distinguish the two here. Once set, subsequent
  /// epochs refuse to start.
  const Status& status() const { return status_; }

 private:
  struct Slot {
    EncodedDataset buffer;
    TaskGroup group;
    Status status;
    size_t rows = 0;
  };

  void BuildEpochOrder();
  void ScheduleFill(size_t batch_index);

  StreamingReader* reader_ = nullptr;
  size_t begin_ = 0;
  size_t end_ = 0;
  Options options_;
  Rng rng_;
  size_t block_rows_ = 0;

  std::vector<size_t> order_;      // epoch row order (global row ids)
  std::vector<size_t> iota_rows_;  // 0..batch_size-1; Batch.rows target
  std::vector<std::unique_ptr<Slot>> slots_;  // Slot holds a TaskGroup (immovable)
  size_t num_batches_ = 0;
  size_t next_return_ = 0;   // batch index the next Next() yields
  size_t next_schedule_ = 0; // first batch not yet handed to the pool
  bool epoch_open_ = false;
  Status status_;
};

}  // namespace optinter

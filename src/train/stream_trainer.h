// Out-of-core training: TrainModel's epoch loop (internal::RunEpochLoop,
// trainer.h) driven by streamed batches from a sharded on-disk dataset
// (data/stream_reader.h) instead of an in-RAM EncodedDataset.
//
// Splits are contiguous row ranges of the shard directory: train =
// [0, train_frac*N), val = the next val_frac*N rows, test = the rest.
// This matches the streaming encoder's convention (stream_encode.h fits
// vocabularies on the train prefix), and makes in-RAM parity trivial:
// TrainModel over the materialized dataset with the same contiguous index
// ranges and the same seed is bit-identical to TrainModelStreamed with
// Order::kGlobalShuffle — both paths produce the same epoch row order (see
// stream_reader.h) and run the same executor, kernels and evaluation grid.
// concurrency_test.cc pins this.
//
// Errors: a shard that fails validation mid-epoch or mid-evaluation
// (corruption, missing file) surfaces as the returned Status — never as a
// partial batch, a silently shortened epoch or metrics over fewer rows.

#pragma once

#include "data/stream_reader.h"
#include "train/trainer.h"

namespace optinter {

/// Options for TrainModelStreamed: the epoch-loop options of TrainModel
/// (epochs, batch_size, seed, patience, stop_metric, verbose, report) plus
/// the streaming ones below.
struct StreamTrainOptions : TrainOptions {
  /// Contiguous split fractions over the shard directory's rows. test is
  /// the remainder; val (and test) may be empty.
  double train_frac = 0.7;
  double val_frac = 0.15;
  /// Train-epoch row order. kGlobalShuffle is bit-identical to in-RAM
  /// TrainModel but touches every shard each epoch; kWindowShuffle keeps
  /// the working set near `window_blocks` shards (bounded RSS).
  StreamingBatcher::Order order = StreamingBatcher::Order::kGlobalShuffle;
  size_t prefetch_batches = 2;
  size_t window_blocks = 8;
  size_t block_rows = 0;  // 0 = the manifest's rows_per_shard
  size_t eval_batch_size = 2048;
};

/// Streamed evaluation over global rows [begin, end): internal::
/// EvaluateBatchGrid with batch `bi` a FillBatch of rows
/// [begin + bi * batch_size, ...) into a task-local buffer. Batches are
/// filled and predicted concurrently across the pool, so the reader may
/// hold more shards than its resident bound while they run (pinned shards
/// are never evicted). Bit-identical metrics to EvaluateModel over the
/// same rows of the materialized dataset with the same batch size, at any
/// pool size. A failing shard returns the lowest failing batch's Status.
Result<EvalMetrics> EvaluateModelStreamed(const CtrModel* model,
                                          StreamingReader* reader,
                                          size_t begin, size_t end,
                                          size_t batch_size = 2048);

/// Trains `model` (constructed against reader->meta()) on the streamed
/// train range with per-epoch validation, early stopping and a final
/// test evaluation — the streamed counterpart of TrainModel.
Result<TrainSummary> TrainModelStreamed(CtrModel* model,
                                        StreamingReader* reader,
                                        const StreamTrainOptions& options);

}  // namespace optinter

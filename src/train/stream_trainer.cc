#include "train/stream_trainer.h"

#include <numeric>

#include "common/logging.h"

namespace optinter {

Result<EvalMetrics> EvaluateModelStreamed(const CtrModel* model,
                                          StreamingReader* reader,
                                          size_t begin, size_t end,
                                          size_t batch_size) {
  CHECK_LT(begin, end);
  auto fill = [reader, begin](size_t start, size_t size,
                              internal::EvalScratch* scratch,
                              Batch* batch) -> Status {
    std::vector<size_t>& rows = scratch->rows;
    rows.resize(size);
    std::iota(rows.begin(), rows.end(), begin + start);
    OPTINTER_RETURN_NOT_OK(reader->FillBatch(rows.data(), size,
                                             &scratch->buffer));
    // Row k of the batch is row k of the filled buffer.
    std::iota(rows.begin(), rows.end(), size_t{0});
    batch->data = &scratch->buffer;
    batch->rows = rows.data();
    batch->size = size;
    return Status::OK();
  };
  return internal::EvaluateBatchGrid(model, end - begin, batch_size, fill);
}

namespace {

/// Contiguous split boundaries over `n` rows.
struct StreamSplits {
  size_t train_end = 0;
  size_t val_end = 0;
};

StreamSplits ComputeSplits(size_t n, const StreamTrainOptions& options) {
  CHECK_GT(options.train_frac, 0.0);
  CHECK_LE(options.train_frac + options.val_frac, 1.0);
  StreamSplits s;
  s.train_end = std::max<size_t>(
      1, static_cast<size_t>(static_cast<double>(n) * options.train_frac));
  s.val_end = std::min(
      n, s.train_end + static_cast<size_t>(
                           static_cast<double>(n) * options.val_frac));
  return s;
}

}  // namespace

Result<TrainSummary> TrainModelStreamed(CtrModel* model,
                                        StreamingReader* reader,
                                        const StreamTrainOptions& options) {
  const size_t n = reader->num_rows();
  const StreamSplits s = ComputeSplits(n, options);
  StreamingBatcher::Options bo;
  bo.batch_size = options.batch_size;
  bo.order = options.order;
  bo.seed = options.seed;
  bo.prefetch_batches = options.prefetch_batches;
  bo.window_blocks = options.window_blocks;
  bo.block_rows = options.block_rows;
  StreamingBatcher batcher(reader, 0, s.train_end, bo);
  internal::EvalFn eval_val;
  internal::EvalFn eval_test;
  if (s.val_end > s.train_end) {
    eval_val = [=] {
      return EvaluateModelStreamed(model, reader, s.train_end, s.val_end,
                                   options.eval_batch_size);
    };
  }
  if (n > s.val_end) {
    eval_test = [=] {
      return EvaluateModelStreamed(model, reader, s.val_end, n,
                                   options.eval_batch_size);
    };
  }
  return internal::RunEpochLoop(
      model, &batcher, [&batcher] { return batcher.status(); }, eval_val,
      eval_test, options);
}

}  // namespace optinter

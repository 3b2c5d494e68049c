#include "train/stream_trainer.h"

#include <vector>

#include "common/logging.h"
#include "metrics/metrics.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace optinter {

namespace {

obs::Counter* EvalRowsCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("eval.rows");
  return c;
}

}  // namespace

Result<EvalMetrics> EvaluateModelStreamed(const CtrModel* model,
                                          StreamingReader* reader,
                                          size_t begin, size_t end,
                                          size_t batch_size) {
  OPTINTER_TRACE_SPAN("evaluate");
  CHECK_LT(begin, end);
  CHECK_GT(batch_size, 0u);
  const size_t n = end - begin;
  EvalRowsCounter()->Add(n);

  StreamingBatcher::Options bo;
  bo.batch_size = batch_size;
  bo.order = StreamingBatcher::Order::kSequential;
  StreamingBatcher source(reader, begin, end, bo);

  std::vector<float> all_probs;
  std::vector<float> all_labels;
  all_probs.reserve(n);
  all_labels.reserve(n);
  std::vector<float> probs;  // per-batch scratch
  ForwardContext ctx;
  source.StartEpoch();
  for (;;) {
    Batch b = source.Next();
    if (b.size == 0) break;
    // In-range order over the same batch grid as EvaluateModel over the
    // materialized rows, so the stitched metrics are bit-identical to the
    // in-RAM evaluation.
    model->Predict(b, &probs, &ctx);
    all_probs.insert(all_probs.end(), probs.begin(), probs.begin() + b.size);
    for (size_t k = 0; k < b.size; ++k) all_labels.push_back(b.label(k));
  }
  OPTINTER_RETURN_NOT_OK(source.status());
  CHECK_EQ(all_probs.size(), n);

  EvalMetrics m;
  m.auc = Auc(all_probs, all_labels);
  m.logloss = LogLoss(all_probs, all_labels);
  return m;
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

StreamingBatcher::Options BatcherOptions(const StreamTrainOptions& options) {
  StreamingBatcher::Options bo;
  bo.batch_size = options.batch_size;
  bo.order = options.order;
  bo.seed = options.seed;
  bo.prefetch_batches = options.prefetch_batches;
  bo.window_blocks = options.window_blocks;
  bo.block_rows = options.block_rows;
  return bo;
}

/// Runs the shared epoch loop over `batcher`, failing on its data errors.
Result<TrainSummary> RunStreamedLoop(CtrModel* model,
                                     StreamingBatcher* batcher,
                                     const internal::EvalFn& eval_val,
                                     const internal::EvalFn& eval_test,
                                     const StreamTrainOptions& options) {
  return internal::RunEpochLoop(
      model, batcher, [batcher] { return batcher->status(); }, eval_val,
      eval_test, options);
}

}  // namespace

Result<TrainSummary> TrainModelStreamed(CtrModel* model,
                                        StreamingReader* reader,
                                        const StreamTrainOptions& options) {
  const size_t n = reader->num_rows();
  const StreamSplits s = ComputeSplits(n, options);
  StreamingBatcher batcher(reader, 0, s.train_end, BatcherOptions(options));
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
  return RunStreamedLoop(model, &batcher, eval_val, eval_test, options);
}

Result<TrainSummary> TrainModelStreamed(CtrModel* model,
                                        const EncodedDataset& data,
                                        const StreamTrainOptions& options) {
  const size_t n = data.num_rows;
  const StreamSplits s = ComputeSplits(n, options);
  StreamingBatcher batcher(&data, 0, s.train_end, BatcherOptions(options));
  // Evaluation over contiguous in-RAM rows with the same batch grid and
  // metric math as the streamed evaluation — bit-identical results.
  auto eval_range = [&data, model, &options](size_t begin, size_t end) {
    return [=, &data]() -> Result<EvalMetrics> {
      std::vector<size_t> rows(end - begin);
      for (size_t i = 0; i < rows.size(); ++i) rows[i] = begin + i;
      return EvaluateModel(model, data, rows, options.eval_batch_size);
    };
  };
  internal::EvalFn eval_val;
  internal::EvalFn eval_test;
  if (s.val_end > s.train_end) eval_val = eval_range(s.train_end, s.val_end);
  if (n > s.val_end) eval_test = eval_range(s.val_end, n);
  return RunStreamedLoop(model, &batcher, eval_val, eval_test, options);
}

}  // namespace optinter

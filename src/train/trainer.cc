#include "train/trainer.h"

#include <cstring>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "metrics/metrics.h"
#include "obs/registry.h"
#include "obs/run_report.h"
#include "obs/trace.h"
#include "train/pipeline_executor.h"

namespace optinter {

namespace {
obs::Counter* TrainRowsCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("train.rows");
  return c;
}

obs::Counter* EvalRowsCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("eval.rows");
  return c;
}
}  // namespace

bool ScoreImproved(double score, double best_score, StopMetric metric) {
  // Log loss: 1e-6 absolute is below any meaningful calibration change at
  // this scale. AUC: gains on a large validation set are quantized by
  // ~1/(P·N) pair swaps and can be genuine well below 1e-6, so the bar is
  // only there to reject float-summation jitter.
  const double tol = metric == StopMetric::kAuc ? 1e-9 : 1e-6;
  return score > best_score + tol;
}

EvalMetrics EvaluateModel(const CtrModel* model, const EncodedDataset& data,
                          const std::vector<size_t>& rows,
                          size_t batch_size) {
  CHECK(!rows.empty());
  auto view = [&](size_t start, size_t size, internal::EvalScratch*,
                  Batch* batch) {
    batch->data = &data;
    batch->rows = rows.data() + start;
    batch->size = size;
    return Status::OK();
  };
  Result<EvalMetrics> m =
      internal::EvaluateBatchGrid(model, rows.size(), batch_size, view);
  CHECK_OK(m.status());  // views never fail
  return *m;
}

namespace internal {

Result<EvalMetrics> EvaluateBatchGrid(const CtrModel* model, size_t n,
                                      size_t batch_size,
                                      const EvalBatchFn& batch_at) {
  OPTINTER_TRACE_SPAN("evaluate");
  CHECK_GT(n, 0u);
  CHECK_GT(batch_size, 0u);
  EvalRowsCounter()->Add(n);
  std::vector<float> all_probs(n);
  std::vector<float> all_labels(n);
  const size_t num_batches = (n + batch_size - 1) / batch_size;
  std::vector<Status> statuses(num_batches);
  // Each task owns a ForwardContext and scratch and writes its batches'
  // slices at deterministic offsets, so the stitched result — and therefore
  // AUC/log-loss — is bit-identical whatever the batch-to-task assignment.
  auto predict_range = [&](size_t lo, size_t hi) {
    EvalScratch scratch;
    std::vector<float> probs;
    ForwardContext ctx;
    for (size_t bi = lo; bi < hi; ++bi) {
      const size_t start = bi * batch_size;
      const size_t size = std::min(batch_size, n - start);
      Batch b;
      statuses[bi] = batch_at(start, size, &scratch, &b);
      if (!statuses[bi].ok()) continue;
      model->Predict(b, &probs, &ctx);
      std::memcpy(all_probs.data() + start, probs.data(),
                  size * sizeof(float));
      for (size_t k = 0; k < size; ++k) all_labels[start + k] = b.label(k);
    }
  };
  if (num_batches > 1) {
    OPTINTER_TRACE_SPAN("eval_batch_parallel");
    ParallelForChunks(0, num_batches, predict_range, /*min_chunk=*/1);
  } else {
    predict_range(0, num_batches);
  }
  // Grid order, so the lowest failing batch decides.
  for (const Status& st : statuses) OPTINTER_RETURN_NOT_OK(st);
  EvalMetrics m;
  m.auc = Auc(all_probs, all_labels);
  m.logloss = LogLoss(all_probs, all_labels);
  return m;
}

EpochTelemetry TrainEpoch(PipelinedTrainExecutor* executor,
                          BatchSource* batches, size_t epoch,
                          const std::function<void()>& on_step,
                          size_t* rows) {
  OPTINTER_TRACE_SPAN("train_epoch");
  Stopwatch epoch_timer;
  batches->StartEpoch();
  const PipelinedTrainExecutor::EpochStats stats =
      executor->RunEpoch(batches, on_step);
  EpochTelemetry et;
  et.epoch = epoch;
  et.train_seconds = epoch_timer.Elapsed();
  et.train_rows_per_sec =
      et.train_seconds > 0.0
          ? static_cast<double>(stats.rows) / et.train_seconds
          : 0.0;
  et.mean_train_loss =
      stats.batches > 0
          ? stats.loss_sum / static_cast<double>(stats.batches)
          : 0.0;
  if (rows != nullptr) *rows = stats.rows;
  return et;
}

void SumEpochTelemetry(TrainTelemetry* telemetry) {
  double seconds = 0.0;
  double rows = 0.0;
  for (const EpochTelemetry& et : telemetry->epochs) {
    seconds += et.train_seconds;
    rows += et.train_rows_per_sec * et.train_seconds;
  }
  telemetry->train_seconds_total = seconds;
  if (seconds > 0.0) telemetry->train_rows_per_sec = rows / seconds;
}

Result<TrainSummary> RunEpochLoop(CtrModel* model, BatchSource* batches,
                                  const std::function<Status()>& batches_status,
                                  const EvalFn& eval_val,
                                  const EvalFn& eval_test,
                                  const TrainOptions& options) {
  model->CheckNotFrozen("TrainModel");
  Stopwatch timer;
  TrainSummary summary;
  TrainTelemetry& telemetry = summary.telemetry;
  const bool has_val = static_cast<bool>(eval_val);
  const bool has_test = static_cast<bool>(eval_test);

  // "Score" is oriented so larger is better regardless of metric.
  double best_val_score = -1e300;
  size_t stale_epochs = 0;
  // Best-checkpoint snapshot: the final evaluation uses the weights from
  // the best validation epoch, not the (possibly overfit) last one.
  std::vector<Tensor*> state;
  model->CollectState(&state);
  std::vector<Tensor> best_state;
  bool have_snapshot = false;
  // One executor for the whole run so workspace capacity persists across
  // epochs (only the first epoch's first steps may allocate).
  PipelinedTrainExecutor executor(model);
  auto tick_report = [&] {
    if (options.report != nullptr) options.report->MaybeWriteEvery();
  };

  for (size_t epoch = 0; epoch < options.epochs; ++epoch) {
    size_t rows_seen = 0;
    EpochTelemetry et =
        TrainEpoch(&executor, batches, epoch, tick_report, &rows_seen);
    // An empty batch ends the epoch both at exhaustion and on a data
    // error; only the status tells them apart. Fail the run rather than
    // report metrics from a silently shortened epoch.
    if (batches_status) OPTINTER_RETURN_NOT_OK(batches_status());
    TrainRowsCounter()->Add(rows_seen);
    const double mean_loss = et.mean_train_loss;
    summary.epoch_train_losses.push_back(mean_loss);
    ++summary.epochs_run;

    bool stop = false;
    if (has_val) {
      Stopwatch eval_timer;
      OPTINTER_ASSIGN_OR_RETURN(const EvalMetrics val, eval_val());
      et.eval_seconds = eval_timer.Elapsed();
      telemetry.eval_seconds_total += et.eval_seconds;
      summary.epoch_val_aucs.push_back(val.auc);
      summary.final_val = val;
      const double score = options.stop_metric == StopMetric::kAuc
                               ? val.auc
                               : -val.logloss;
      if (ScoreImproved(score, best_val_score, options.stop_metric)) {
        best_val_score = score;
        stale_epochs = 0;
        et.improved = true;
        telemetry.best_epoch = epoch;
        if (!state.empty()) {
          best_state.resize(state.size());
          for (size_t i = 0; i < state.size(); ++i) {
            best_state[i] = *state[i];
          }
          have_snapshot = true;
        }
      } else if (options.patience > 0 && ++stale_epochs >= options.patience) {
        telemetry.early_stopped = true;
        stop = true;
      }
      if (options.verbose) {
        LOG_INFO() << model->Name() << " epoch " << epoch
                   << " loss=" << mean_loss << " val_auc=" << val.auc
                   << " val_logloss=" << val.logloss << " train_s="
                   << et.train_seconds << " eval_s=" << et.eval_seconds
                   << " rows/s=" << et.train_rows_per_sec
                   << (et.improved ? " [improved]" : " [stale]");
        if (stop) {
          LOG_INFO() << model->Name() << " early stop at epoch " << epoch;
        }
      }
    } else if (options.verbose) {
      LOG_INFO() << model->Name() << " epoch " << epoch
                 << " loss=" << mean_loss << " train_s=" << et.train_seconds
                 << " rows/s=" << et.train_rows_per_sec;
    }
    telemetry.epochs.push_back(et);
    tick_report();
    if (stop) break;
  }
  if (have_snapshot) {
    for (size_t i = 0; i < state.size(); ++i) {
      *state[i] = std::move(best_state[i]);
    }
    telemetry.restored_best_snapshot = true;
    if (has_val) {
      Stopwatch eval_timer;
      OPTINTER_ASSIGN_OR_RETURN(summary.final_val, eval_val());
      telemetry.eval_seconds_total += eval_timer.Elapsed();
    }
  }
  if (has_test) {
    Stopwatch eval_timer;
    OPTINTER_ASSIGN_OR_RETURN(summary.final_test, eval_test());
    telemetry.eval_seconds_total += eval_timer.Elapsed();
  }
  SumEpochTelemetry(&telemetry);
  summary.seconds = timer.Elapsed();
  return summary;
}

}  // namespace internal

TrainSummary TrainModel(CtrModel* model, const EncodedDataset& data,
                        const Splits& splits, const TrainOptions& options) {
  CHECK(!splits.train.empty());
  Batcher batcher(&data, splits.train, options.batch_size, options.seed);
  auto eval_rows = [model, &data](const std::vector<size_t>& rows) {
    return [model, &data, &rows]() -> Result<EvalMetrics> {
      return EvaluateModel(model, data, rows);
    };
  };
  internal::EvalFn eval_val;
  internal::EvalFn eval_test;
  if (!splits.val.empty()) eval_val = eval_rows(splits.val);
  if (!splits.test.empty()) eval_test = eval_rows(splits.test);
  // In-RAM batches never fail and EvaluateModel has no error path.
  Result<TrainSummary> summary = internal::RunEpochLoop(
      model, &batcher, /*batches_status=*/{}, eval_val, eval_test, options);
  CHECK_OK(summary.status());
  return std::move(summary).value();
}

obs::JsonValue EvalMetricsToJson(const EvalMetrics& metrics) {
  obs::JsonValue out = obs::JsonValue::MakeObject();
  out.Set("auc", obs::JsonValue::Double(metrics.auc));
  out.Set("logloss", obs::JsonValue::Double(metrics.logloss));
  return out;
}

obs::JsonValue TelemetryToJson(const TrainTelemetry& telemetry) {
  obs::JsonValue epochs = obs::JsonValue::MakeArray();
  for (const EpochTelemetry& et : telemetry.epochs) {
    obs::JsonValue e = obs::JsonValue::MakeObject();
    e.Set("epoch", obs::JsonValue::Uint(et.epoch));
    e.Set("train_seconds", obs::JsonValue::Double(et.train_seconds));
    e.Set("eval_seconds", obs::JsonValue::Double(et.eval_seconds));
    e.Set("train_rows_per_sec",
          obs::JsonValue::Double(et.train_rows_per_sec));
    e.Set("mean_train_loss", obs::JsonValue::Double(et.mean_train_loss));
    e.Set("improved", obs::JsonValue::Bool(et.improved));
    epochs.Push(std::move(e));
  }
  obs::JsonValue out = obs::JsonValue::MakeObject();
  out.Set("epochs", std::move(epochs));
  out.Set("train_seconds_total",
          obs::JsonValue::Double(telemetry.train_seconds_total));
  out.Set("eval_seconds_total",
          obs::JsonValue::Double(telemetry.eval_seconds_total));
  out.Set("train_rows_per_sec",
          obs::JsonValue::Double(telemetry.train_rows_per_sec));
  out.Set("best_epoch", obs::JsonValue::Uint(telemetry.best_epoch));
  out.Set("early_stopped", obs::JsonValue::Bool(telemetry.early_stopped));
  out.Set("restored_best_snapshot",
          obs::JsonValue::Bool(telemetry.restored_best_snapshot));
  return out;
}

obs::JsonValue TrainSummaryToJson(const TrainSummary& summary) {
  obs::JsonValue out = obs::JsonValue::MakeObject();
  out.Set("final_val", EvalMetricsToJson(summary.final_val));
  out.Set("final_test", EvalMetricsToJson(summary.final_test));
  obs::JsonValue losses = obs::JsonValue::MakeArray();
  for (double v : summary.epoch_train_losses) {
    losses.Push(obs::JsonValue::Double(v));
  }
  out.Set("epoch_train_losses", std::move(losses));
  obs::JsonValue aucs = obs::JsonValue::MakeArray();
  for (double v : summary.epoch_val_aucs) {
    aucs.Push(obs::JsonValue::Double(v));
  }
  out.Set("epoch_val_aucs", std::move(aucs));
  out.Set("epochs_run", obs::JsonValue::Uint(summary.epochs_run));
  out.Set("seconds", obs::JsonValue::Double(summary.seconds));
  out.Set("telemetry", TelemetryToJson(summary.telemetry));
  return out;
}

}  // namespace optinter

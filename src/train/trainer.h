// Generic training / evaluation loop for CtrModel instances.
//
// Every model trains through the CtrModel phase protocol (models/model.h)
// and predicts through its const Predict, so one epoch loop serves the
// in-RAM TrainModel and the out-of-core TrainModelStreamed
// (stream_trainer.h). Every training epoch, theirs and the search
// stage's (core/pipeline.h), steps through the pipelined executor
// (pipeline_executor.h) via internal::TrainEpoch. Evaluation, in RAM
// (EvaluateModel) and streamed (EvaluateModelStreamed), runs one batch grid
// (internal::EvaluateBatchGrid) that predicts whole batches concurrently,
// each with its own ForwardContext.

#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/batch.h"
#include "models/model.h"
#include "obs/json.h"

namespace optinter {

namespace obs {
class RunReport;
}  // namespace obs

class PipelinedTrainExecutor;

/// Which validation metric gates early stopping.
enum class StopMetric {
  /// Minimize validation log loss (guards calibration drift — memorized
  /// cross tables overfit in confidence before they overfit in ranking).
  kLogLoss,
  /// Maximize validation AUC.
  kAuc,
};

/// True when `score` beats `best_score` by more than the metric-aware
/// improvement tolerance used for early stopping. Scores are oriented so
/// larger is better (AUC, or -logloss). AUC is bounded in [0, 1], so a
/// genuine gain on a large validation set can be far below the 1e-6 that
/// is a sensible noise floor for log loss; a single absolute threshold
/// for both metrics silently converted real AUC gains into stale epochs.
bool ScoreImproved(double score, double best_score, StopMetric metric);

/// Options for TrainModel.
struct TrainOptions {
  size_t epochs = 3;
  size_t batch_size = 512;
  uint64_t seed = 1;
  /// Stop after this many epochs without validation improvement
  /// (0 disables early stopping; requires a non-empty val split).
  size_t patience = 1;
  StopMetric stop_metric = StopMetric::kLogLoss;
  bool verbose = false;
  /// Optional: a report armed with RunReport::WriteEvery is ticked at
  /// quiescent points (after each step and after every epoch) so long
  /// runs flush progress without waiting for the final write. Not owned.
  obs::RunReport* report = nullptr;
};

/// AUC + log loss of one evaluation pass.
struct EvalMetrics {
  double auc = 0.0;
  double logloss = 0.0;
};

/// Per-epoch wall-clock and throughput record. train_seconds covers every
/// step's prepare, forward, backward and optimizer update; eval_seconds is
/// the validation pass.
struct EpochTelemetry {
  size_t epoch = 0;
  double train_seconds = 0.0;
  double eval_seconds = 0.0;
  /// Training rows consumed this epoch / train_seconds.
  double train_rows_per_sec = 0.0;
  double mean_train_loss = 0.0;
  /// Whether this epoch improved the early-stopping score (and therefore
  /// refreshed the best-checkpoint snapshot).
  bool improved = false;
};

/// Run-level observability for one TrainModel call (fields documented in
/// DESIGN.md).
struct TrainTelemetry {
  std::vector<EpochTelemetry> epochs;
  double train_seconds_total = 0.0;
  double eval_seconds_total = 0.0;
  /// Aggregate training throughput over all epochs.
  double train_rows_per_sec = 0.0;
  /// Epoch whose snapshot was restored as the final weights (0 when no
  /// validation split / no snapshot).
  size_t best_epoch = 0;
  bool early_stopped = false;
  bool restored_best_snapshot = false;
};

/// Outcome of a full training run.
struct TrainSummary {
  EvalMetrics final_val;
  EvalMetrics final_test;
  std::vector<double> epoch_train_losses;
  std::vector<double> epoch_val_aucs;
  size_t epochs_run = 0;
  double seconds = 0.0;
  TrainTelemetry telemetry;
};

/// Evaluates `model` on the given rows in batches of `batch_size` (no
/// gradient work): internal::EvaluateBatchGrid with batch `bi` a view of
/// rows [bi * batch_size, ...), so the metrics are bit-identical at any
/// pool size.
EvalMetrics EvaluateModel(const CtrModel* model, const EncodedDataset& data,
                          const std::vector<size_t>& rows,
                          size_t batch_size = 2048);

/// Trains `model` on splits.train with per-epoch validation on
/// splits.val, early stopping, and a final test evaluation on
/// splits.test. Every epoch runs through the pipelined executor
/// (train/pipeline_executor.h). CHECK-fails on a frozen model
/// (CtrModel::Freeze).
TrainSummary TrainModel(CtrModel* model, const EncodedDataset& data,
                        const Splits& splits, const TrainOptions& options);

namespace internal {

/// One evaluation pass of the epoch loop.
using EvalFn = std::function<Result<EvalMetrics>()>;

/// Task-local storage a grid batch may point into (a filled batch's rows
/// and their ids); reused across the task's batches.
struct EvalScratch {
  EncodedDataset buffer;
  std::vector<size_t> rows;
};

/// Makes grid rows [start, start + size) into `*batch`, which stays valid
/// until the next call with the same `scratch`.
using EvalBatchFn = std::function<Status(size_t start, size_t size,
                                         EvalScratch* scratch, Batch* batch)>;

/// The evaluation loop behind EvaluateModel and EvaluateModelStreamed: AUC
/// and log loss over `n` rows cut into a grid of `batch_size` batches.
/// Batches are made and predicted concurrently across the pool, each task
/// owning a private ForwardContext and EvalScratch. Every batch writes its
/// probabilities and labels at an offset fixed by the grid, so the metrics
/// are bit-identical at any pool size (a pool of 1 runs the batches in
/// order). When batches fail, the lowest failing batch's Status is
/// returned, whatever the schedule.
Result<EvalMetrics> EvaluateBatchGrid(const CtrModel* model, size_t n,
                                      size_t batch_size,
                                      const EvalBatchFn& batch_at);

/// The epoch loop behind TrainModel and TrainModelStreamed. Each epoch
/// trains over `batches` (TrainEpoch), fails the run if `batches_status`
/// (optional) reports an error, evaluates with `eval_val` (empty when
/// there is no validation range), keeps the best-epoch snapshot and
/// early-stops after options.patience stale epochs. At the end it restores
/// the snapshot and evaluates `eval_test` (optional). Reads
/// options.epochs, patience, stop_metric, verbose and report (not
/// batch_size or seed: `batches` is already built). CHECK-fails on a
/// frozen model.
Result<TrainSummary> RunEpochLoop(CtrModel* model, BatchSource* batches,
                                  const std::function<Status()>& batches_status,
                                  const EvalFn& eval_val,
                                  const EvalFn& eval_test,
                                  const TrainOptions& options);

/// One timed training epoch, shared by RunEpochLoop and the search stage
/// (core/pipeline.h): StartEpoch()s `batches` and runs it through
/// `executor`, with `on_step` as in PipelinedTrainExecutor::RunEpoch.
/// Returns the epoch's train fields (train_seconds, train_rows_per_sec,
/// mean_train_loss; the eval fields stay 0) and, when `rows` is set, its
/// row count.
EpochTelemetry TrainEpoch(PipelinedTrainExecutor* executor,
                          BatchSource* batches, size_t epoch,
                          const std::function<void()>& on_step,
                          size_t* rows = nullptr);

/// Sets telemetry->train_seconds_total and the aggregate
/// train_rows_per_sec from telemetry->epochs.
void SumEpochTelemetry(TrainTelemetry* telemetry);

}  // namespace internal

/// JSON forms for run reports (obs/run_report.h). Field names mirror the
/// struct members.
obs::JsonValue EvalMetricsToJson(const EvalMetrics& metrics);
obs::JsonValue TelemetryToJson(const TrainTelemetry& telemetry);
obs::JsonValue TrainSummaryToJson(const TrainSummary& summary);

}  // namespace optinter

#include <gtest/gtest.h>

#include <algorithm>

#include "core/zoo.h"
#include "test_data.h"
#include "train/trainer.h"

namespace optinter {
namespace {

using testing::PoolGuard;
using testing::SharedTinyData;

HyperParams TinyHp() {
  HyperParams hp = DefaultHyperParams("tiny");
  hp.seed = 17;
  return hp;
}

TEST(TrainerTest, RecordsPerEpochStats) {
  const auto& p = SharedTinyData();
  auto model = CreateBaseline("FNN", p.data, TinyHp());
  ASSERT_TRUE(model.ok());
  TrainOptions opts;
  opts.epochs = 2;
  opts.batch_size = 512;
  opts.patience = 0;
  TrainSummary s = TrainModel(model->get(), p.data, p.splits, opts);
  EXPECT_EQ(s.epochs_run, 2u);
  EXPECT_EQ(s.epoch_train_losses.size(), 2u);
  EXPECT_EQ(s.epoch_val_aucs.size(), 2u);
  EXPECT_GT(s.seconds, 0.0);
  EXPECT_GT(s.final_test.auc, 0.0);
  EXPECT_GT(s.final_test.logloss, 0.0);
}

TEST(TrainerTest, TrainingLossImprovesAcrossEpochs) {
  const auto& p = SharedTinyData();
  auto model = CreateBaseline("OptInter-M", p.data, TinyHp());
  ASSERT_TRUE(model.ok());
  TrainOptions opts;
  opts.epochs = 3;
  opts.batch_size = 256;
  opts.patience = 0;
  TrainSummary s = TrainModel(model->get(), p.data, p.splits, opts);
  EXPECT_LT(s.epoch_train_losses.back(), s.epoch_train_losses.front());
}

TEST(TrainerTest, EarlyStoppingCapsEpochs) {
  // With a zero learning rate the validation AUC cannot improve, so
  // patience=1 must stop training after the second epoch.
  // (FNN rather than LR: the zoo gives shallow models their own larger
  // learning rate, which would override the zero here.)
  const auto& p = SharedTinyData();
  HyperParams hp = TinyHp();
  hp.lr_orig = 0.0f;
  hp.lr_cross = 0.0f;
  auto model = CreateBaseline("FNN", p.data, hp);
  ASSERT_TRUE(model.ok());
  TrainOptions opts;
  opts.epochs = 30;
  opts.batch_size = 512;
  opts.patience = 1;
  TrainSummary s = TrainModel(model->get(), p.data, p.splits, opts);
  EXPECT_EQ(s.epochs_run, 2u);
}

TEST(TrainerTest, NoValSplitStillTrains) {
  const auto& p = SharedTinyData();
  auto model = CreateBaseline("FM", p.data, TinyHp());
  ASSERT_TRUE(model.ok());
  Splits splits = p.splits;
  splits.val.clear();
  TrainOptions opts;
  opts.epochs = 1;
  opts.batch_size = 512;
  TrainSummary s = TrainModel(model->get(), p.data, splits, opts);
  EXPECT_EQ(s.epochs_run, 1u);
  EXPECT_TRUE(s.epoch_val_aucs.empty());
  EXPECT_GT(s.final_test.auc, 0.0);
}

TEST(TrainerTest, EvaluateBatchingInvariant) {
  // Metrics must not depend on the evaluation batch size.
  const auto& p = SharedTinyData();
  auto model = CreateBaseline("FNN", p.data, TinyHp());
  ASSERT_TRUE(model.ok());
  EvalMetrics big = EvaluateModel(model->get(), p.data, p.splits.test, 4096);
  EvalMetrics small = EvaluateModel(model->get(), p.data, p.splits.test, 77);
  EXPECT_NEAR(big.auc, small.auc, 1e-12);
  EXPECT_NEAR(big.logloss, small.logloss, 1e-12);
}

TEST(TrainerTest, EvaluateParallelBitIdenticalToSerial) {
  // The parallel path (pool-fanned label gather + preallocated stitching,
  // row-parallel kernels inside Predict) must be bit-identical to a serial
  // Predict loop over the same batch grid at every pool size: disjoint
  // writes, no float reassociation.
  PoolGuard guard;
  const auto& p = SharedTinyData();
  auto model = CreateBaseline("OptInter-M", p.data, TinyHp());
  ASSERT_TRUE(model.ok());
  TrainOptions topts;
  topts.epochs = 1;
  TrainModel(model->get(), p.data, p.splits, topts);
  ThreadPool::SetGlobalThreads(1);
  const EvalMetrics ref =
      testing::SerialEvaluate(**model, p.data, p.splits.test, 2048);
  for (const size_t threads : {1u, 2u, 4u, 8u}) {
    ThreadPool::SetGlobalThreads(threads);
    const EvalMetrics got = EvaluateModel(model->get(), p.data, p.splits.test);
    EXPECT_EQ(got.auc, ref.auc) << threads << " threads";
    EXPECT_EQ(got.logloss, ref.logloss) << threads << " threads";
  }
}

TEST(TrainerTest, ScoreImprovedToleranceIsMetricAware) {
  // Sub-1e-6 AUC gains are genuine on large validation sets and must not
  // count as stale epochs; the seed used one absolute 1e-6 for both
  // metrics.
  const double best = 0.75;
  EXPECT_TRUE(ScoreImproved(best + 5e-7, best, StopMetric::kAuc));
  EXPECT_FALSE(ScoreImproved(best + 1e-10, best, StopMetric::kAuc));
  EXPECT_FALSE(ScoreImproved(best, best, StopMetric::kAuc));
  // Log loss keeps the coarser noise floor.
  EXPECT_FALSE(ScoreImproved(best + 5e-7, best, StopMetric::kLogLoss));
  EXPECT_TRUE(ScoreImproved(best + 1e-5, best, StopMetric::kLogLoss));
}

TEST(TrainerTest, RestoresBestEpochSnapshot) {
  // Train past the best epoch and verify the final weights are the best
  // epoch's snapshot: the re-evaluated final_val must equal the best
  // epoch's recorded validation metrics, not the last epoch's.
  const auto& p = SharedTinyData();
  auto model = CreateBaseline("OptInter-M", p.data, TinyHp());
  ASSERT_TRUE(model.ok());
  TrainOptions opts;
  opts.epochs = 6;
  opts.batch_size = 256;
  opts.patience = 0;  // never stop early: guarantees post-best epochs run
  opts.stop_metric = StopMetric::kAuc;
  TrainSummary s = TrainModel(model->get(), p.data, p.splits, opts);
  ASSERT_EQ(s.epoch_val_aucs.size(), s.epochs_run);
  double best_auc = -1.0;
  for (const double auc : s.epoch_val_aucs) best_auc = std::max(best_auc, auc);
  ASSERT_TRUE(s.telemetry.restored_best_snapshot);
  ASSERT_LT(s.telemetry.best_epoch, s.epoch_val_aucs.size());
  // Same weights + same rows + deterministic eval ⇒ the re-evaluation after
  // the restore reproduces the snapshot epoch's recorded metrics exactly.
  EXPECT_DOUBLE_EQ(s.final_val.auc,
                   s.epoch_val_aucs[s.telemetry.best_epoch]);
  // And the snapshot epoch is the best one (up to the improvement
  // tolerance that gates snapshot refreshes).
  EXPECT_GE(s.final_val.auc + 1e-9, best_auc);
}

TEST(TrainerTest, TelemetryRecordsEpochTimings) {
  const auto& p = SharedTinyData();
  auto model = CreateBaseline("FNN", p.data, TinyHp());
  ASSERT_TRUE(model.ok());
  TrainOptions opts;
  opts.epochs = 2;
  opts.patience = 0;
  TrainSummary s = TrainModel(model->get(), p.data, p.splits, opts);
  ASSERT_EQ(s.telemetry.epochs.size(), s.epochs_run);
  for (size_t e = 0; e < s.telemetry.epochs.size(); ++e) {
    const EpochTelemetry& et = s.telemetry.epochs[e];
    EXPECT_EQ(et.epoch, e);
    EXPECT_GT(et.train_seconds, 0.0);
    EXPECT_GT(et.eval_seconds, 0.0);
    EXPECT_GT(et.train_rows_per_sec, 0.0);
    EXPECT_EQ(et.mean_train_loss, s.epoch_train_losses[e]);
  }
  EXPECT_GT(s.telemetry.train_seconds_total, 0.0);
  EXPECT_GT(s.telemetry.eval_seconds_total, 0.0);
  EXPECT_GT(s.telemetry.train_rows_per_sec, 0.0);
  EXPECT_FALSE(s.telemetry.early_stopped);
  EXPECT_LE(s.telemetry.train_seconds_total + s.telemetry.eval_seconds_total,
            s.seconds + 1e-9);
}

TEST(TrainerTest, TelemetryMarksEarlyStop) {
  const auto& p = SharedTinyData();
  HyperParams hp = TinyHp();
  hp.lr_orig = 0.0f;
  hp.lr_cross = 0.0f;
  auto model = CreateBaseline("FNN", p.data, hp);
  ASSERT_TRUE(model.ok());
  TrainOptions opts;
  opts.epochs = 30;
  opts.patience = 1;
  TrainSummary s = TrainModel(model->get(), p.data, p.splits, opts);
  EXPECT_TRUE(s.telemetry.early_stopped);
  EXPECT_EQ(s.telemetry.epochs.size(), s.epochs_run);
}

}  // namespace
}  // namespace optinter

#include "core/pipeline.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>

#include "common/stopwatch.h"
#include "metrics/mutual_information.h"
#include "core/autofis.h"
#include "core/fixed_arch_model.h"
#include "obs/timeline.h"
#include "train/pipeline_executor.h"

namespace optinter {

obs::SearchEpochDynamics SnapshotSearchDynamics(
    const SearchModel& model, size_t epoch, const Architecture& prev_arch,
    const Architecture& arch) {
  const size_t num_pairs = arch.size();
  obs::SearchEpochDynamics d;
  d.epoch = epoch;
  d.temperature = model.temperature();
  d.alpha_entropy_per_pair.resize(num_pairs);
  for (size_t p = 0; p < num_pairs; ++p) {
    const std::vector<float> probs = model.PairProbabilities(p);
    double h = 0.0;
    for (const float q : probs) {
      if (q > 0.0f) h -= static_cast<double>(q) * std::log(q);
    }
    d.alpha_entropy_per_pair[p] = h;
  }
  if (num_pairs > 0) {
    double sum = 0.0;
    d.min_alpha_entropy = d.alpha_entropy_per_pair[0];
    d.max_alpha_entropy = d.alpha_entropy_per_pair[0];
    for (const double h : d.alpha_entropy_per_pair) {
      sum += h;
      d.min_alpha_entropy = std::min(d.min_alpha_entropy, h);
      d.max_alpha_entropy = std::max(d.max_alpha_entropy, h);
    }
    d.mean_alpha_entropy = sum / static_cast<double>(num_pairs);
  }
  for (size_t p = 0; p < num_pairs; ++p) {
    d.argmax_counts[static_cast<size_t>(arch[p])]++;
    if (!prev_arch.empty() && arch[p] != prev_arch[p]) ++d.argmax_flips;
  }
  return d;
}

SearchResult RunSearchStage(const EncodedDataset& data, const Splits& splits,
                            const HyperParams& hp,
                            const SearchOptions& options) {
  CHECK(!splits.train.empty());
  Stopwatch timer;
  SearchModel model(data, hp, options.mode);
  Batcher train_batcher(&data, splits.train, hp.batch_size, hp.seed);
  // Bi-level updates α on validation batches (DARTS-style); fall back to
  // train rows if no val split exists.
  Batcher arch_batcher(&data, splits.val.empty() ? splits.train : splits.val,
                       hp.batch_size, hp.seed ^ 0xa5c3ULL);
  arch_batcher.StartEpoch();

  SearchResult result;
  Architecture prev_arch;  // empty until the first epoch snapshot
  const size_t epochs = std::max<size_t>(1, options.search_epochs);
  // Joint mode pipelines Θ+α steps; bi-level interleaves a serial ArchStep
  // per batch, so it runs the serial loop.
  const bool use_pipeline =
      options.pipeline && options.mode == UpdateMode::kJoint;
  std::unique_ptr<PipelinedTrainExecutor> executor;
  if (use_pipeline) executor = std::make_unique<PipelinedTrainExecutor>(&model);
  // Within-epoch α sampling: every K steps, diff the argmax architecture
  // against the previous sample and record flips. Runs at step quiescent
  // points (on_step on the pipelined path, between steps on the serial
  // one), so it observes the same α state a checkpoint would.
  result.dynamics.sample_every = options.alpha_sample_every;
  size_t global_step = 0;
  size_t current_epoch = 0;
  Architecture sampled_arch;
  auto sample_alpha = [&] {
    ++global_step;
    if (options.alpha_sample_every == 0 ||
        global_step % options.alpha_sample_every != 0) {
      return;
    }
    const Architecture cur = model.ExtractArchitecture();
    if (!sampled_arch.empty()) {
      for (size_t p = 0; p < cur.size(); ++p) {
        if (cur[p] == sampled_arch[p]) continue;
        obs::AlphaFlipEvent ev;
        ev.epoch = current_epoch;
        ev.step = global_step;
        ev.pair = p;
        ev.from = static_cast<int>(sampled_arch[p]);
        ev.to = static_cast<int>(cur[p]);
        if (obs::Timeline::Enabled()) {
          char detail[obs::Timeline::kDetailCapacity];
          std::snprintf(detail, sizeof(detail), "pair=%zu %s->%s", p,
                        obs::AlphaMethodName(ev.from),
                        obs::AlphaMethodName(ev.to));
          obs::Timeline::RecordInstant("alpha_flip", detail);
        }
        result.dynamics.flip_events.push_back(ev);
      }
    }
    sampled_arch = cur;
  };
  for (size_t epoch = 0; epoch < epochs; ++epoch) {
    current_epoch = epoch;
    if (options.anneal_temperature) {
      model.SetTemperature(AnnealedTemperature(hp, epoch, epochs));
    }
    Stopwatch epoch_timer;
    train_batcher.StartEpoch();
    double loss_sum = 0.0;
    size_t batches = 0;
    size_t rows_seen = 0;
    if (use_pipeline) {
      const PipelinedTrainExecutor::EpochStats stats =
          executor->RunEpoch(&train_batcher, sample_alpha);
      loss_sum = stats.loss_sum;
      batches = stats.batches;
      rows_seen = stats.rows;
    } else {
      for (;;) {
        Batch b = train_batcher.Next();
        if (b.size == 0) break;
        loss_sum += model.TrainStep(b);
        rows_seen += b.size;
        ++batches;
        if (options.mode == UpdateMode::kBilevel) {
          Batch vb = arch_batcher.Next();
          if (vb.size == 0) {
            arch_batcher.StartEpoch();
            vb = arch_batcher.Next();
          }
          model.ArchStep(vb);
        }
        sample_alpha();
      }
    }
    EpochTelemetry et;
    et.epoch = epoch;
    et.train_seconds = epoch_timer.Elapsed();
    et.train_rows_per_sec =
        et.train_seconds > 0.0
            ? static_cast<double>(rows_seen) / et.train_seconds
            : 0.0;
    et.mean_train_loss =
        batches ? loss_sum / static_cast<double>(batches) : 0.0;
    result.telemetry.train_seconds_total += et.train_seconds;
    result.telemetry.epochs.push_back(et);

    const Architecture epoch_arch = model.ExtractArchitecture();
    obs::SearchEpochDynamics dyn =
        SnapshotSearchDynamics(model, epoch, prev_arch, epoch_arch);
    if (options.verbose) {
      LOG_INFO() << model.Name() << " search epoch " << epoch
                 << " loss=" << et.mean_train_loss
                 << " tau=" << model.temperature()
                 << " train_s=" << et.train_seconds
                 << " rows/s=" << et.train_rows_per_sec
                 << " mean_H(alpha)=" << dyn.mean_alpha_entropy
                 << " argmax[mem/fact/naive]=" << dyn.argmax_counts[0] << "/"
                 << dyn.argmax_counts[1] << "/" << dyn.argmax_counts[2]
                 << " flips=" << dyn.argmax_flips;
    }
    result.dynamics.epochs.push_back(std::move(dyn));
    prev_arch = epoch_arch;
  }

  result.arch = model.ExtractArchitecture();
  {
    Stopwatch eval_timer;
    if (!splits.val.empty()) {
      result.search_val = EvaluateModel(&model, data, splits.val);
    }
    if (!splits.test.empty()) {
      result.search_test = EvaluateModel(&model, data, splits.test);
    }
    result.telemetry.eval_seconds_total = eval_timer.Elapsed();
  }
  if (result.telemetry.train_seconds_total > 0.0) {
    double rows_total = 0.0;
    for (const EpochTelemetry& et : result.telemetry.epochs) {
      rows_total += et.train_rows_per_sec * et.train_seconds;
    }
    result.telemetry.train_rows_per_sec =
        rows_total / result.telemetry.train_seconds_total;
  }
  result.seconds = timer.Elapsed();
  return result;
}

OptInterResult RunOptInter(const EncodedDataset& data, const Splits& splits,
                           const HyperParams& hp,
                           const SearchOptions& search_options,
                           const TrainOptions& train_options) {
  OptInterResult result;
  result.search = RunSearchStage(data, splits, hp, search_options);
  FixedArchRun run = TrainFixedArch(data, splits, result.search.arch, hp,
                                    train_options, "OptInter");
  result.retrain = std::move(run.summary);
  result.param_count = run.param_count;
  return result;
}

Architecture RandomArchitecture(size_t num_pairs, Rng* rng) {
  Architecture arch(num_pairs);
  for (size_t p = 0; p < num_pairs; ++p) {
    arch[p] = static_cast<InterMethod>(rng->UniformInt(3));
  }
  return arch;
}

FixedArchRun TrainFixedArch(const EncodedDataset& data, const Splits& splits,
                            const Architecture& arch, const HyperParams& hp,
                            const TrainOptions& options,
                            const std::string& name) {
  FixedArchModel model(data, arch, hp, name);
  FixedArchRun run;
  run.summary = TrainModel(&model, data, splits, options);
  run.param_count = model.ParamCount();
  return run;
}

std::vector<size_t> SelectTopTriplesByMiLift(const EncodedDataset& data,
                                             const std::vector<size_t>& rows,
                                             size_t k) {
  CHECK(data.has_triples());
  const size_t n = data.num_triples();
  std::vector<double> lift(n);
  const size_t m = data.num_categorical();
  for (size_t t = 0; t < n; ++t) {
    const auto& tr = data.triple_fields[t];
    // OOV-collapsed MI on both sides keeps the comparison on one scale
    // (raw-id plug-in MI is inflated for sparse features).
    const double tri_mi = TripleLabelMutualInformation(data, t, rows);
    double best_pair = 0.0;
    best_pair = std::max(
        best_pair, CrossLabelMutualInformation(
                       data, PairIndex(tr[0], tr[1], m), rows));
    best_pair = std::max(
        best_pair, CrossLabelMutualInformation(
                       data, PairIndex(tr[0], tr[2], m), rows));
    best_pair = std::max(
        best_pair, CrossLabelMutualInformation(
                       data, PairIndex(tr[1], tr[2], m), rows));
    lift[t] = tri_mi - best_pair;
  }
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return lift[a] > lift[b]; });
  order.resize(std::min(k, n));
  return order;
}

AutoFisResult RunAutoFis(const EncodedDataset& data, const Splits& splits,
                         const HyperParams& hp,
                         const TrainOptions& train_options) {
  AutoFisResult result;
  {
    AutoFisSearchModel search(data, hp);
    TrainOptions search_options = train_options;
    search_options.patience = 0;  // let GRDA prune for the full budget
    TrainModel(&search, data, splits, search_options);
    result.arch = search.ExtractArchitecture();
  }
  FixedArchRun run =
      TrainFixedArch(data, splits, result.arch, hp, train_options, "AutoFIS");
  result.retrain = std::move(run.summary);
  result.param_count = run.param_count;
  return result;
}

}  // namespace optinter

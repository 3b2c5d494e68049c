#include "core/pipeline.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
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

void AlphaFlipSampler::Step(size_t epoch) {
  ++steps_;
  const size_t every = dynamics_->sample_every;
  if (every == 0 || steps_ % every != 0) return;
  const Architecture cur = model_.ExtractArchitecture();
  if (!sampled_.empty()) {
    for (size_t p = 0; p < cur.size(); ++p) {
      if (cur[p] == sampled_[p]) continue;
      obs::AlphaFlipEvent ev;
      ev.epoch = epoch;
      ev.step = steps_;
      ev.pair = p;
      ev.from = static_cast<int>(sampled_[p]);
      ev.to = static_cast<int>(cur[p]);
      if (obs::Timeline::Enabled()) {
        char detail[obs::Timeline::kDetailCapacity];
        std::snprintf(detail, sizeof(detail), "pair=%zu %s->%s", p,
                      obs::AlphaMethodName(ev.from),
                      obs::AlphaMethodName(ev.to));
        obs::Timeline::RecordInstant("alpha_flip", detail);
      }
      dynamics_->flip_events.push_back(ev);
    }
  }
  sampled_ = cur;
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
  result.dynamics.sample_every = options.alpha_sample_every;
  AlphaFlipSampler sampler(model, &result.dynamics);
  PipelinedTrainExecutor executor(&model);
  Architecture prev_arch;  // empty until the first epoch snapshot
  const size_t epochs = std::max<size_t>(1, options.search_epochs);
  size_t epoch = 0;
  // Runs after each Θ step at a quiescent point (its prefetch joined).
  // Bi-level follows the Θ step on b_t with an α step on vb_t here, so
  // the Gumbel stream is consumed in the order of a serial
  // TrainStep/ArchStep loop; the prefetch of b_{t+1} reads only row ids.
  // α is then sampled, observing the same state a checkpoint would.
  auto on_step = [&] {
    if (options.mode == UpdateMode::kBilevel) {
      Batch vb = arch_batcher.Next();
      if (vb.size == 0) {
        arch_batcher.StartEpoch();
        vb = arch_batcher.Next();
      }
      model.ArchStep(vb);
    }
    sampler.Step(epoch);
  };
  for (; epoch < epochs; ++epoch) {
    if (options.anneal_temperature) {
      model.SetTemperature(AnnealedTemperature(hp, epoch, epochs));
    }
    const EpochTelemetry et =
        internal::TrainEpoch(&executor, &train_batcher, epoch, on_step);
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
  internal::SumEpochTelemetry(&result.telemetry);

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

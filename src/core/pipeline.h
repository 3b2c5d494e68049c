// The OptInter two-stage learning pipeline (paper §II-C):
// search stage (Algorithm 1) → architecture freeze (Eq. 19) →
// re-train from scratch (Algorithm 2). Also the ablation machinery:
// bi-level search, random architectures, no-retrain evaluation, and the
// AutoFIS search/re-train pipeline.

#pragma once

#include "core/search_model.h"
#include "models/hyperparams.h"
#include "models/interaction.h"
#include "obs/search_dynamics.h"
#include "train/trainer.h"

namespace optinter {

/// Options for the search stage.
struct SearchOptions {
  size_t search_epochs = 2;
  UpdateMode mode = UpdateMode::kJoint;
  /// Anneal the Gumbel-softmax temperature linearly across epochs from
  /// HyperParams::gumbel_temp_start to gumbel_temp_end.
  bool anneal_temperature = true;
  bool verbose = false;
  /// Sample the argmax architecture every this many train steps and record
  /// per-pair flips between consecutive samples in
  /// SearchResult::dynamics.flip_events (and as timeline instant events
  /// when OPTINTER_OBS_TIMELINE is set). 0 = off (default): the per-epoch
  /// snapshots alone cannot show oscillation inside an epoch. Samples run
  /// at step quiescent points, so they never perturb training math.
  size_t alpha_sample_every = 0;
};

/// Outcome of the search stage.
struct SearchResult {
  Architecture arch;
  /// Metrics of the (mixed-weights) search model itself — what you get if
  /// you skip re-training (Table IX "w.o." column).
  EvalMetrics search_val;
  EvalMetrics search_test;
  double seconds = 0.0;
  /// Per-epoch wall-clock / throughput of the search loop (train fields
  /// cover the joint Θ+α steps; eval fields the final search-model evals).
  TrainTelemetry telemetry;
  /// Per-epoch α dynamics: entropy of softmax(α/τ) per pair, argmax-method
  /// histogram, argmax flips vs the previous epoch, temperature.
  obs::SearchDynamics dynamics;
};

/// Runs the search stage only (joint or bi-level). Every epoch steps
/// through the pipelined executor (train/pipeline_executor.h); in
/// bi-level mode each step's quiescent-point hook runs ArchStep on the
/// next validation batch, so the Θ and α steps alternate as in a serial
/// TrainStep, ArchStep loop, with the same bits.
SearchResult RunSearchStage(const EncodedDataset& data, const Splits& splits,
                            const HyperParams& hp,
                            const SearchOptions& options);

/// α-dynamics snapshot for one epoch: per-pair entropy of softmax(α/τ),
/// the argmax-method histogram over `arch`, and flips vs `prev_arch`
/// (pass an empty prev_arch for the first epoch). `arch` must be the
/// model's current ExtractArchitecture(). Used by RunSearchStage per
/// epoch; exposed for drivers that run their own search loop.
obs::SearchEpochDynamics SnapshotSearchDynamics(const SearchModel& model,
                                                size_t epoch,
                                                const Architecture& prev_arch,
                                                const Architecture& arch);

/// Within-epoch α sampling (SearchOptions::alpha_sample_every). Call Step
/// once after every train step, at a quiescent point: every
/// dynamics->sample_every steps (0 = never) it diffs the model's argmax
/// architecture against the previous sample and appends one
/// AlphaFlipEvent per flipped pair to dynamics->flip_events (and an
/// `alpha_flip` timeline instant when OPTINTER_OBS_TIMELINE is set). Only
/// reads the model. Used by RunSearchStage; exposed for drivers that run
/// their own search loop.
class AlphaFlipSampler {
 public:
  /// `model` and `dynamics` must outlive the sampler.
  AlphaFlipSampler(const SearchModel& model, obs::SearchDynamics* dynamics)
      : model_(model), dynamics_(dynamics) {}

  /// Counts one train step of search epoch `epoch`; samples on every
  /// dynamics->sample_every-th step.
  void Step(size_t epoch);

 private:
  const SearchModel& model_;
  obs::SearchDynamics* dynamics_;
  size_t steps_ = 0;
  Architecture sampled_;  // empty until the first sample
};

/// Full OptInter run: search + re-train from scratch.
struct OptInterResult {
  SearchResult search;
  TrainSummary retrain;
  size_t param_count = 0;
};
OptInterResult RunOptInter(const EncodedDataset& data, const Splits& splits,
                           const HyperParams& hp,
                           const SearchOptions& search_options,
                           const TrainOptions& train_options);

/// Uniformly random per-pair method assignment (Table VIII "Random").
Architecture RandomArchitecture(size_t num_pairs, Rng* rng);

/// Trains a FixedArchModel with the given architecture; returns the
/// summary and parameter count.
struct FixedArchRun {
  TrainSummary summary;
  size_t param_count = 0;
};
FixedArchRun TrainFixedArch(const EncodedDataset& data, const Splits& splits,
                            const Architecture& arch, const HyperParams& hp,
                            const TrainOptions& options,
                            const std::string& name = "OptInter");

/// Ranks the dataset's built third-order triples by the *interaction
/// lift* of their MI over the best constituent pair, and returns the
/// indices of the top `k` — a simple MI-guided selector for the paper's
/// higher-order extension.
std::vector<size_t> SelectTopTriplesByMiLift(const EncodedDataset& data,
                                             const std::vector<size_t>& rows,
                                             size_t k);

/// AutoFIS pipeline: GRDA-gated search, then re-train the selected
/// {factorize, naïve} architecture.
struct AutoFisResult {
  Architecture arch;
  TrainSummary retrain;
  size_t param_count = 0;
};
AutoFisResult RunAutoFis(const EncodedDataset& data, const Splits& splits,
                         const HyperParams& hp,
                         const TrainOptions& train_options);

}  // namespace optinter

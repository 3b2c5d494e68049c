// Deep dive into the OptInter search stage: watch the per-pair method
// probabilities evolve during Gumbel-softmax training, then compare the
// final architecture with the generator's planted ground truth and with
// the mutual-information ranking (paper §II-C and §III-G).
//
//   ./build/examples/architecture_search [--dataset=tiny] [--epochs=3]

#include <cstdio>

#include "common/flags.h"
#include "core/pipeline.h"
#include "core/search_model.h"
#include "metrics/mutual_information.h"
#include "obs/run_report.h"
#include "synth/prepare.h"

using namespace optinter;

namespace {

void PrintProbRow(const SearchModel& model, size_t pair, const char* tag) {
  auto probs = model.PairProbabilities(pair);
  std::printf("  pair %3zu [%-13s]  p(mem)=%.3f p(fact)=%.3f p(naive)=%.3f\n",
              pair, tag, probs[0], probs[1], probs[2]);
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  flags.AddString("dataset", "tiny", "profile to search on");
  flags.AddInt("epochs", 3, "search epochs");
  flags.AddDouble("rows_scale", 1.0, "row-count multiplier");
  flags.AddString("report", "",
                  "write a JSON run report (search dynamics + metrics + "
                  "span profile) to this path");
  flags.AddInt("alpha_sample_every", 0,
               "sample argmax-architecture flips every N train steps "
               "(0 = off); flips land in the report's search_dynamics and "
               "in the OPTINTER_OBS_TIMELINE trace");
  Status st = flags.Parse(argc, argv);
  if (!st.ok()) return st.code() == StatusCode::kFailedPrecondition ? 0 : 1;

  PrepareOptions popts;
  popts.rows_scale = flags.GetDouble("rows_scale");
  auto prepared = PrepareProfile(flags.GetString("dataset"), popts);
  CHECK(prepared.ok()) << prepared.status().ToString();
  const PreparedDataset& p = *prepared;
  const auto kinds = p.config.PlantedKinds();

  HyperParams hp = DefaultHyperParams(flags.GetString("dataset"));
  hp.search_epochs = static_cast<size_t>(flags.GetInt("epochs"));

  // Pick one planted pair of each kind to track.
  size_t track[3] = {SIZE_MAX, SIZE_MAX, SIZE_MAX};
  for (size_t q = 0; q < kinds.size(); ++q) {
    if (kinds[q] == PlantedKind::kMemorize && track[0] == SIZE_MAX)
      track[0] = q;
    if (kinds[q] == PlantedKind::kFactorize && track[1] == SIZE_MAX)
      track[1] = q;
    if (kinds[q] == PlantedKind::kNoise && track[2] == SIZE_MAX)
      track[2] = q;
  }
  const char* tags[3] = {"planted-mem", "planted-fact", "planted-noise"};

  SearchModel model(p.data, hp, UpdateMode::kJoint);
  Batcher batcher(&p.data, p.splits.train, hp.batch_size, hp.seed);
  obs::SearchDynamics dynamics;
  dynamics.sample_every =
      static_cast<size_t>(flags.GetInt("alpha_sample_every"));
  AlphaFlipSampler sampler(model, &dynamics);
  Architecture prev_arch;
  std::printf("search on %s: %zu pairs, tau %g -> %g over %zu epochs\n",
              p.config.name.c_str(), p.data.num_pairs(),
              hp.gumbel_temp_start, hp.gumbel_temp_end, hp.search_epochs);
  for (size_t epoch = 0; epoch < hp.search_epochs; ++epoch) {
    model.SetTemperature(AnnealedTemperature(hp, epoch, hp.search_epochs));
    batcher.StartEpoch();
    double loss_sum = 0.0;
    size_t batches = 0;
    for (;;) {
      Batch b = batcher.Next();
      if (b.size == 0) break;
      loss_sum += model.TrainStep(b);
      ++batches;
      sampler.Step(epoch);
    }
    std::printf("epoch %zu (tau %.2f): train loss %.4f\n", epoch,
                model.temperature(), loss_sum / batches);
    for (int k = 0; k < 3; ++k) {
      if (track[k] != SIZE_MAX) PrintProbRow(model, track[k], tags[k]);
    }
    const Architecture epoch_arch = model.ExtractArchitecture();
    obs::SearchEpochDynamics dyn =
        SnapshotSearchDynamics(model, epoch, prev_arch, epoch_arch);
    std::printf("  mean H(alpha) %.4f  argmax [%zu,%zu,%zu]  flips %zu\n",
                dyn.mean_alpha_entropy, dyn.argmax_counts[0],
                dyn.argmax_counts[1], dyn.argmax_counts[2],
                dyn.argmax_flips);
    dynamics.epochs.push_back(std::move(dyn));
    prev_arch = epoch_arch;
  }

  Architecture arch = model.ExtractArchitecture();
  std::printf("\nfinal architecture: %s\n",
              ArchCountsToString(CountArchitecture(arch)).c_str());
  if (dynamics.sample_every > 0) {
    std::printf("within-epoch argmax flips (sampled every %zu steps): %zu\n",
                dynamics.sample_every, dynamics.flip_events.size());
  }

  // Recall vs planted ground truth.
  size_t mem_total = 0, mem_hit = 0, noise_total = 0, noise_not_mem = 0;
  for (size_t q = 0; q < kinds.size(); ++q) {
    if (kinds[q] == PlantedKind::kMemorize) {
      ++mem_total;
      mem_hit += arch[q] == InterMethod::kMemorize;
    } else if (kinds[q] == PlantedKind::kNoise) {
      ++noise_total;
      noise_not_mem += arch[q] != InterMethod::kMemorize;
    }
  }
  std::printf("planted memorize pairs recalled as memorize: %zu/%zu\n",
              mem_hit, mem_total);
  std::printf("planted noise pairs not memorized: %zu/%zu\n", noise_not_mem,
              noise_total);

  // MI of memorized vs naive selections.
  const auto mi = AllPairMutualInformation(p.data, p.splits.train);
  double mi_mem = 0.0, mi_naive = 0.0;
  size_t n_mem = 0, n_naive = 0;
  for (size_t q = 0; q < arch.size(); ++q) {
    if (arch[q] == InterMethod::kMemorize) {
      mi_mem += mi[q];
      ++n_mem;
    } else if (arch[q] == InterMethod::kNaive) {
      mi_naive += mi[q];
      ++n_naive;
    }
  }
  if (n_mem > 0 && n_naive > 0) {
    std::printf("mean MI: memorized %.4f vs naive %.4f nats\n",
                mi_mem / n_mem, mi_naive / n_naive);
  }

  const std::string report_path = flags.GetString("report");
  if (!report_path.empty()) {
    obs::RunReport report("architecture_search");
    report.SetMeta("dataset", obs::JsonValue::Str(p.config.name));
    report.SetMeta("search_epochs", obs::JsonValue::Uint(hp.search_epochs));
    report.AddSection("search_dynamics",
                      obs::SearchDynamicsToJson(dynamics));
    obs::JsonValue recall = obs::JsonValue::MakeObject();
    recall.Set("planted_memorize_recalled", obs::JsonValue::Uint(mem_hit));
    recall.Set("planted_memorize_total", obs::JsonValue::Uint(mem_total));
    recall.Set("planted_noise_not_memorized",
               obs::JsonValue::Uint(noise_not_mem));
    recall.Set("planted_noise_total", obs::JsonValue::Uint(noise_total));
    report.AddSection("planted_recall", std::move(recall));
    report.CaptureMetrics();
    report.CaptureSpans();
    std::string error;
    if (!report.WriteFile(report_path, &error)) {
      std::fprintf(stderr, "failed to write report %s: %s\n",
                   report_path.c_str(), error.c_str());
      return 1;
    }
    std::printf("run report written to %s\n", report_path.c_str());
  }
  return 0;
}

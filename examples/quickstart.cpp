// Quickstart: generate a tiny synthetic CTR dataset, run the OptInter
// two-stage pipeline (search + re-train), and compare it against FNN and
// the all-memorize / all-factorize instances.
//
//   ./build/examples/quickstart [--rows=6000] [--epochs=2]

#include <cstdio>

#include "common/flags.h"
#include "common/string_util.h"
#include "core/fixed_arch_model.h"
#include "core/pipeline.h"
#include "data/encoder.h"
#include "synth/profiles.h"

using namespace optinter;

int main(int argc, char** argv) {
  FlagParser flags;
  flags.AddInt("rows", 6000, "number of synthetic rows");
  flags.AddInt("epochs", 2, "training epochs");
  flags.AddInt("seed", 7, "random seed");
  Status st = flags.Parse(argc, argv);
  if (!st.ok()) return st.code() == StatusCode::kFailedPrecondition ? 0 : 1;

  // 1. Generate data with planted interaction structure.
  SynthConfig cfg = TinyConfig();
  cfg.num_rows = static_cast<size_t>(flags.GetInt("rows"));
  cfg.seed = static_cast<uint64_t>(flags.GetInt("seed"));
  RawDataset raw = GenerateSynthetic(cfg);
  std::printf("dataset: %zu rows, %zu categorical + %zu continuous fields, "
              "%zu pairs\n",
              raw.num_rows, raw.schema.num_categorical(),
              raw.schema.num_continuous(), raw.schema.num_pairs());

  // 2. Encode: split, fit vocabs (cross-product ones included) on the
  // train rows, encode every row.
  Rng rng(cfg.seed);
  Splits splits = MakeSplits(raw.num_rows, 0.7, 0.1, &rng);
  EncoderOptions enc_opts;  // build_cross is on by default
  auto encoded = EncodeDataset(raw, splits.train, enc_opts);
  if (!encoded.ok()) {
    std::fprintf(stderr, "encode failed: %s\n",
                 encoded.status().ToString().c_str());
    return 1;
  }
  EncodedDataset data = std::move(encoded).value();
  std::printf("encoded: %zu orig values, %zu cross values, pos ratio %.3f\n",
              data.TotalOrigVocab(), data.TotalCrossVocab(),
              data.PositiveRatio());

  // 3. Train baselines and OptInter.
  HyperParams hp = DefaultHyperParams("tiny");
  hp.epochs = static_cast<size_t>(flags.GetInt("epochs"));
  hp.seed = cfg.seed;
  TrainOptions topts;
  topts.epochs = hp.epochs;
  topts.batch_size = hp.batch_size;
  topts.seed = hp.seed;

  std::printf("\n%-12s %8s %9s %10s  %s\n", "model", "AUC", "logloss",
              "params", "architecture");
  auto report = [&](const std::string& name, const TrainSummary& s,
                    size_t params, const std::string& arch) {
    std::printf("%-12s %8.4f %9.4f %10s  %s\n", name.c_str(),
                s.final_test.auc, s.final_test.logloss,
                HumanCount(params).c_str(), arch.c_str());
  };

  {
    auto fnn = FixedArchModel::MakeFnn(data, hp);
    TrainSummary s = TrainModel(fnn.get(), data, splits, topts);
    report("FNN", s, fnn->ParamCount(),
           ArchCountsToString(CountArchitecture(fnn->arch())));
  }
  {
    auto m = FixedArchModel::MakeOptInterM(data, hp);
    TrainSummary s = TrainModel(m.get(), data, splits, topts);
    report("OptInter-M", s, m->ParamCount(),
           ArchCountsToString(CountArchitecture(m->arch())));
  }
  {
    auto f = FixedArchModel::MakeOptInterF(data, hp);
    TrainSummary s = TrainModel(f.get(), data, splits, topts);
    report("OptInter-F", s, f->ParamCount(),
           ArchCountsToString(CountArchitecture(f->arch())));
  }
  {
    SearchOptions sopts;
    sopts.search_epochs = hp.epochs;
    OptInterResult r = RunOptInter(data, splits, hp, sopts, topts);
    report("OptInter", r.retrain, r.param_count,
           ArchCountsToString(CountArchitecture(r.search.arch)));
    std::printf("\nplanted structure: %zu memorize, %zu factorize pairs\n",
                cfg.memorize_pairs.size(), cfg.factorize_pairs.size());
  }
  return 0;
}

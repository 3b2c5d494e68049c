// Multi-operation search-space extension (paper §II-C1): enlarge the
// per-pair candidate set from {memorize, Hadamard, naïve} to
// {memorize, Hadamard, inner product, naïve} and compare against the
// paper's 3-way search. The searched per-pair operators are re-trained
// with FixedArchModel's per-pair factorization functions.

#include <cstdio>

#include "bench_util.h"
#include "core/fixed_arch_model.h"
#include "core/pipeline.h"
#include "core/search_model.h"

using namespace optinter;
using namespace optinter::bench;

int main(int argc, char** argv) {
  FlagParser flags;
  AddCommonFlags(&flags);
  int exit_code = 0;
  if (!ParseOrExit(&flags, argc, argv, &exit_code)) return exit_code;

  for (const auto& name : DatasetList(flags, {"criteo_like"})) {
    PrepareOptions popts;
    popts.rows_scale = flags.GetDouble("rows_scale");
    auto prepared = PrepareProfile(name, popts);
    if (!prepared.ok()) {
      std::fprintf(stderr, "%s: %s\n", name.c_str(),
                   prepared.status().ToString().c_str());
      return 1;
    }
    const PreparedDataset& p = *prepared;
    HyperParams hp = DefaultHyperParams(name);
    ApplyOverrides(flags, &hp);
    TrainOptions topts = MakeTrainOptions(flags, hp);

    PrintHeader("Multi-operation search space: " + name);

    // Baseline: the paper's 3-way search.
    {
      SearchOptions sopts;
      sopts.search_epochs = hp.search_epochs;
      sopts.verbose = flags.GetBool("verbose");
      OptInterResult r = RunOptInter(p.data, p.splits, hp, sopts, topts);
      PrintModelRow("OptInter(3way)", r.retrain.final_test.auc,
                    r.retrain.final_test.logloss, r.param_count,
                    ArchCountsToString(CountArchitecture(r.search.arch)));
    }

    // Extension: 4-way search with per-pair operator choice.
    {
      SearchModel search(p.data, hp, UpdateMode::kJoint,
                         {FactorizeFn::kHadamard, FactorizeFn::kInnerProduct});
      Batcher batcher(&p.data, p.splits.train, hp.batch_size, hp.seed);
      const size_t epochs = hp.search_epochs;
      for (size_t epoch = 0; epoch < epochs; ++epoch) {
        search.SetTemperature(AnnealedTemperature(hp, epoch, epochs));
        batcher.StartEpoch();
        for (;;) {
          Batch b = batcher.Next();
          if (b.size == 0) break;
          search.TrainStep(b);
        }
      }
      const Architecture arch = search.ExtractArchitecture();
      const std::vector<FactorizeFn> fns = search.ExtractFactorizeFns();
      size_t hadamard = 0, inner = 0;
      for (size_t q = 0; q < arch.size(); ++q) {
        if (arch[q] == InterMethod::kFactorize) {
          (fns[q] == FactorizeFn::kHadamard ? hadamard : inner)++;
        }
      }
      FixedArchModel model(p.data, arch, hp, "OptInter-multiop",
                           /*memorized_triples=*/{}, fns);
      TrainSummary s = TrainModel(&model, p.data, p.splits, topts);
      PrintModelRow(
          "OptInter(4way)", s.final_test.auc, s.final_test.logloss,
          model.ParamCount(),
          StrFormat("%s of which hadamard=%zu inner=%zu",
                    ArchCountsToString(CountArchitecture(arch)).c_str(),
                    hadamard, inner));
    }
  }
  return 0;
}

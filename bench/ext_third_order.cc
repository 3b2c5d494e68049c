// Higher-order extension ablation (paper §II-B1: "our methods could
// easily be extended to higher-order"). On a criteo_like dataset with
// *planted third-order* effects:
//   1. encode with third-order cross-product features for all C(M,3)
//      triples, and run the standard second-order OptInter pipeline;
//   2. rank the triples by MI lift over their best constituent pair, and
//      memorize the top-K alongside the searched pairwise architecture;
//   3. compare AUC / log loss / parameters.
// The selector should surface the planted triples, and memorizing them
// should beat the second-order model.

#include <cstdio>

#include "bench_util.h"
#include "core/fixed_arch_model.h"
#include "core/pipeline.h"
#include "metrics/mutual_information.h"

using namespace optinter;
using namespace optinter::bench;

int main(int argc, char** argv) {
  FlagParser flags;
  AddCommonFlags(&flags);
  flags.AddInt("top_triples", 4, "number of triples to memorize");
  int exit_code = 0;
  if (!ParseOrExit(&flags, argc, argv, &exit_code)) return exit_code;

  auto profile = GetProfile("criteo3_like");
  CHECK(profile.ok()) << profile.status().ToString();
  PrepareOptions popts;
  popts.rows_scale = flags.GetDouble("rows_scale");
  popts.encoder.triples =
      EnumerateTriples(profile->cardinalities.size());
  auto prepared = PrepareProfile("criteo3_like", popts);
  CHECK(prepared.ok()) << prepared.status().ToString();
  PreparedDataset p = std::move(prepared).value();

  HyperParams hp = DefaultHyperParams("criteo_like");
  ApplyOverrides(flags, &hp);
  TrainOptions topts = MakeTrainOptions(flags, hp);

  PrintHeader("Higher-order extension: criteo3_like (planted triples: " +
              std::to_string(p.config.memorize_triples.size()) + ")");

  // Second-order OptInter.
  SearchOptions sopts;
  sopts.search_epochs = hp.search_epochs;
  sopts.verbose = flags.GetBool("verbose");
  SearchResult search = RunSearchStage(p.data, p.splits, hp, sopts);
  FixedArchRun second =
      TrainFixedArch(p.data, p.splits, search.arch, hp, topts, "OptInter");
  PrintModelRow("OptInter(2nd)", second.summary.final_test.auc,
                second.summary.final_test.logloss, second.param_count,
                ArchCountsToString(CountArchitecture(search.arch)));

  // Select triples by MI lift.
  const size_t k = static_cast<size_t>(flags.GetInt("top_triples"));
  auto selected = SelectTopTriplesByMiLift(p.data, p.splits.train, k);

  std::printf("\ntop-%zu triples by MI lift (planted: ", k);
  for (const auto& t : p.config.memorize_triples) {
    std::printf("{%zu,%zu,%zu} ", t[0], t[1], t[2]);
  }
  std::printf("):\n");
  size_t planted_found = 0;
  for (size_t idx : selected) {
    const auto& tr = p.data.triple_fields[idx];
    bool planted = false;
    for (const auto& t : p.config.memorize_triples) {
      planted |= t == tr;
    }
    planted_found += planted;
    std::printf("  {%zu,%zu,%zu}  MI %.5f  vocab %zu %s\n", tr[0], tr[1],
                tr[2],
                TripleLabelMutualInformation(p.data, idx, p.splits.train),
                p.data.triple_vocab_sizes[idx],
                planted ? "<- planted" : "");
  }
  std::printf("planted triples recovered in top-%zu: %zu/%zu\n", k,
              planted_found, p.config.memorize_triples.size());

  // Third-order model: searched pairwise arch + memorized top-K triples.
  {
    FixedArchModel model(p.data, search.arch, hp, "OptInter(3rd)",
                         selected);
    TrainSummary s = TrainModel(&model, p.data, p.splits, topts);
    PrintModelRow("OptInter(3rd)", s.final_test.auc, s.final_test.logloss,
                  model.ParamCount(),
                  StrFormat("+%zu memorized triples", selected.size()));
  }
  return 0;
}

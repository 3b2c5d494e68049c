// Embedding-backend trade-off sweep (DESIGN.md §12): AUC vs parameter
// bytes for the cross-table storage backends — dense (the paper's
// memorize tables), QR-compositional (sum and mul combiners), and
// frequency-tiered (hot rows + hashed cold tail).
//
// For each backend the full OptInter pipeline reruns end to end: search
// (so the selection map can react to the changed memorization cost),
// then re-train from scratch with the searched architecture. Rows
// record AUC / logloss / params plus:
//
//   cross_bytes        actual cross-table storage (backing rows × dim ×
//                      4 B + the tiered remap's aux bytes),
//   cross_bytes_ratio  dense-equivalent bytes of the SAME tables over
//                      cross_bytes — the honest compression ratio, not
//                      confounded by the backends memorizing different
//                      pair sets,
//   auc_delta_vs_dense AUC minus the dense baseline's AUC,
//   drift (extra)      per-pair selection-map changes vs the dense
//                      search — memorize/factorize/naive choice drift.
//
// Writes a JSON run report with --report=PATH; tools/bench_compare gates
// CI against the committed BENCH_embedding.json.
//
// CI assertions (off by default):
//   --assert_bytes_ratio=R  fail when a compressed backend's
//                           cross_bytes_ratio falls below R
//                           (deterministic; pure layout arithmetic).
//   --assert_auc_delta=D    fail when a compressed backend's AUC drops
//                           more than D below dense.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/fixed_arch_model.h"
#include "core/pipeline.h"
#include "models/cross_embedding.h"
#include "nn/embedding.h"

using namespace optinter;
using namespace optinter::bench;

namespace {

bool ParseBackend(const std::string& name, EmbeddingBackendConfig* out) {
  if (name == "dense") {
    *out = EmbeddingBackendConfig::Dense();
  } else if (name == "qr" || name == "qr_sum") {
    *out = EmbeddingBackendConfig::QR();
  } else if (name == "qr_mul") {
    *out = EmbeddingBackendConfig::QR(0, QrCombine::kMul);
  } else if (name == "tiered") {
    *out = EmbeddingBackendConfig::Tiered();
  } else {
    return false;
  }
  return true;
}

/// Actual bytes of the model's cross tables (params + tiered remap) and
/// what the same tables would cost stored densely.
struct CrossBytes {
  size_t actual = 0;
  size_t dense_equiv = 0;
};

CrossBytes MeasureCrossBytes(const FixedArchModel& model) {
  CrossBytes b;
  const CrossEmbedding* cross = model.cross_embedding();
  if (cross == nullptr) return b;
  for (size_t k = 0; k < cross->num_blocks(); ++k) {
    const EmbeddingTable& t = cross->table(k);
    b.actual += t.ParamCount() * sizeof(float) + t.AuxBytes();
    b.dense_equiv += t.vocab_size() * t.dim() * sizeof(float);
  }
  return b;
}

size_t CountDrift(const Architecture& a, const Architecture& b) {
  size_t drift = 0;
  for (size_t p = 0; p < a.size() && p < b.size(); ++p) {
    if (a[p] != b[p]) ++drift;
  }
  return drift;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  AddCommonFlags(&flags);
  flags.AddString("backends", "dense,qr,qr_mul,tiered",
                  "comma-separated backend sweep (dense, qr, qr_mul, "
                  "tiered); the first entry is the drift/AUC baseline");
  flags.AddDouble("assert_bytes_ratio", 0.0,
                  "fail when a compressed backend's cross_bytes_ratio is "
                  "below this (0 = off)");
  flags.AddDouble("assert_auc_delta", 0.0,
                  "fail when a compressed backend's AUC drops more than "
                  "this below the baseline (0 = off)");
  int exit_code = 0;
  if (!ParseOrExit(&flags, argc, argv, &exit_code)) return exit_code;

  std::vector<std::string> backends;
  for (const auto& part : Split(flags.GetString("backends"), ',')) {
    std::string name(Trim(part));
    if (!name.empty()) backends.push_back(std::move(name));
  }
  if (backends.empty()) {
    std::fprintf(stderr, "--backends is empty\n");
    return 1;
  }

  BenchReport report("embedding_tradeoff", flags);
  bool assert_failed = false;

  for (const auto& dataset :
       DatasetList(flags, {"criteo_like", "avazu_like"})) {
    PrepareOptions popts;
    popts.rows_scale = flags.GetDouble("rows_scale");
    auto prepared = PrepareProfile(dataset, popts);
    if (!prepared.ok()) {
      std::fprintf(stderr, "%s: %s\n", dataset.c_str(),
                   prepared.status().ToString().c_str());
      return 1;
    }
    const PreparedDataset& p = *prepared;
    HyperParams base_hp = DefaultHyperParams(dataset);
    ApplyOverrides(flags, &base_hp);
    const TrainOptions topts = MakeTrainOptions(flags, base_hp);

    report.Section(dataset);
    Architecture base_arch;
    double base_auc = 0.0;
    for (const std::string& name : backends) {
      HyperParams hp = base_hp;
      if (!ParseBackend(name, &hp.cross_backend)) {
        std::fprintf(stderr, "unknown backend '%s'\n", name.c_str());
        return 1;
      }

      SearchOptions sopts;
      sopts.search_epochs = hp.search_epochs;
      sopts.verbose = flags.GetBool("verbose");
      SearchResult search = RunSearchStage(p.data, p.splits, hp, sopts);

      FixedArchModel model(p.data, search.arch, hp, name);
      TrainSummary summary = TrainModel(&model, p.data, p.splits, topts);

      const CrossBytes bytes = MeasureCrossBytes(model);
      const double ratio =
          bytes.actual > 0
              ? static_cast<double>(bytes.dense_equiv) / bytes.actual
              : 1.0;
      const bool is_baseline = base_arch.empty();
      if (is_baseline) {
        base_arch = search.arch;
        base_auc = summary.final_test.auc;
      }
      const size_t drift = CountDrift(base_arch, search.arch);
      const double auc_delta = summary.final_test.auc - base_auc;

      report.AddRow(
          name, summary.final_test.auc, summary.final_test.logloss,
          model.ParamCount(), summary.telemetry,
          StrFormat("cross %.2f KiB (%.1fx dense)  drift %zu/%zu pairs",
                    bytes.actual / 1024.0, ratio, drift, base_arch.size()));
      report.AnnotateLastRow("cross_bytes",
                             obs::JsonValue::Uint(bytes.actual));
      report.AnnotateLastRow("cross_bytes_ratio",
                             obs::JsonValue::Double(ratio));
      report.AnnotateLastRow("auc_delta_vs_dense",
                             obs::JsonValue::Double(auc_delta));

      if (!is_baseline) {
        const double min_ratio = flags.GetDouble("assert_bytes_ratio");
        if (min_ratio > 0.0 && bytes.actual > 0 && ratio < min_ratio) {
          std::fprintf(stderr,
                       "ASSERT FAILED: %s/%s cross_bytes_ratio %.2f < %.2f\n",
                       dataset.c_str(), name.c_str(), ratio, min_ratio);
          assert_failed = true;
        }
        const double max_delta = flags.GetDouble("assert_auc_delta");
        if (max_delta > 0.0 && auc_delta < -max_delta) {
          std::fprintf(stderr,
                       "ASSERT FAILED: %s/%s AUC dropped %.4f (> %.4f) "
                       "below %s\n",
                       dataset.c_str(), name.c_str(), -auc_delta, max_delta,
                       backends.front().c_str());
          assert_failed = true;
        }
      }
    }
  }

  const int report_code = report.Finish();
  if (report_code != 0) return report_code;
  return assert_failed ? 1 : 0;
}

// Shared plumbing for the table/figure reproduction harnesses: common
// flags, dataset preparation, and table printing.

#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/string_util.h"
#include "models/hyperparams.h"
#include "obs/run_report.h"
#include "synth/prepare.h"
#include "train/trainer.h"

namespace optinter {
namespace bench {

/// Registers the flags every experiment harness shares.
inline void AddCommonFlags(FlagParser* flags) {
  flags->AddString("datasets", "",
                   "comma-separated profile subset (default: all for this "
                   "experiment)");
  flags->AddDouble("rows_scale", 1.0,
                   "multiplier on each profile's row count");
  flags->AddInt("epochs", 0, "override training epochs (0 = profile default)");
  flags->AddInt("seed", 0, "override base seed (0 = profile default)");
  flags->AddInt("patience", -1,
                "override early-stop patience (-1 = profile default)");
  flags->AddBool("verbose", false, "per-epoch training logs");
  flags->AddString("report", "",
                   "write a JSON run report (metrics + span profile + "
                   "result rows) to this path");
}

/// Parses flags; returns false if the process should exit (help or error).
inline bool ParseOrExit(FlagParser* flags, int argc, char** argv,
                        int* exit_code) {
  Status st = flags->Parse(argc, argv);
  if (st.ok()) return true;
  *exit_code = st.code() == StatusCode::kFailedPrecondition ? 0 : 1;
  if (*exit_code != 0) std::fprintf(stderr, "%s\n", st.ToString().c_str());
  return false;
}

/// Dataset list from --datasets (or the given defaults).
inline std::vector<std::string> DatasetList(
    const FlagParser& flags, const std::vector<std::string>& defaults) {
  const std::string& arg = flags.GetString("datasets");
  if (arg.empty()) return defaults;
  std::vector<std::string> out;
  for (auto& part : Split(arg, ',')) {
    std::string name(Trim(part));
    if (!name.empty()) out.push_back(std::move(name));
  }
  return out;
}

/// Applies the common overrides to a profile's hyper-parameters.
inline void ApplyOverrides(const FlagParser& flags, HyperParams* hp) {
  if (flags.GetInt("epochs") > 0) {
    hp->epochs = static_cast<size_t>(flags.GetInt("epochs"));
  }
  if (flags.GetInt("seed") > 0) {
    hp->seed = static_cast<uint64_t>(flags.GetInt("seed"));
  }
  if (flags.GetInt("patience") >= 0) {
    hp->early_stop_patience =
        static_cast<size_t>(flags.GetInt("patience"));
  }
}

/// TrainOptions consistent with the hyper-parameters + common flags.
inline TrainOptions MakeTrainOptions(const FlagParser& flags,
                                     const HyperParams& hp) {
  TrainOptions opts;
  opts.epochs = hp.epochs;
  opts.batch_size = hp.batch_size;
  opts.seed = hp.seed;
  opts.patience = hp.early_stop_patience;
  opts.verbose = flags.GetBool("verbose");
  return opts;
}

/// Section header in the output stream.
inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

/// One Table-V-style row.
inline void PrintModelRow(const std::string& model, double auc,
                          double logloss, size_t params,
                          const std::string& extra = "") {
  std::printf("%-14s  AUC %.4f  logloss %.4f  params %8s  %s\n",
              model.c_str(), auc, logloss, HumanCount(params).c_str(),
              extra.c_str());
}

/// Prints table rows like the Print* helpers above while also recording
/// them as JSON, and writes a run report when --report was given. One
/// instance per harness:
///
///   bench::BenchReport report("table5_overall", flags);
///   report.Section(profile.name);                  // PrintHeader + JSON
///   report.AddRow("LR", auc, ll, params, telemetry);
///   ...
///   return report.Finish();                        // writes --report file
class BenchReport {
 public:
  /// `run_name` names the report; the output path comes from --report
  /// (empty = print only).
  BenchReport(std::string run_name, const FlagParser& flags)
      : run_name_(std::move(run_name)), path_(flags.GetString("report")) {}

  /// Starts a titled section (a dataset/profile in the table harnesses).
  void Section(const std::string& title) {
    PrintHeader(title);
    sections_.emplace_back(title, obs::JsonValue::MakeArray());
  }

  /// Table-V-style row without timing columns.
  void AddRow(const std::string& model, double auc, double logloss,
              size_t params, const std::string& extra = "") {
    PrintModelRow(model, auc, logloss, params, extra);
    Record(model, auc, logloss, params, nullptr, extra);
  }

  /// Row with train/eval timing from TrainTelemetry.
  void AddRow(const std::string& model, double auc, double logloss,
              size_t params, const TrainTelemetry& telemetry,
              const std::string& extra = "") {
    std::printf(
        "%-14s  AUC %.4f  logloss %.4f  params %8s  train %6.1fs  eval "
        "%5.1fs  %8.0f rows/s  %s\n",
        model.c_str(), auc, logloss, HumanCount(params).c_str(),
        telemetry.train_seconds_total, telemetry.eval_seconds_total,
        telemetry.train_rows_per_sec, extra.c_str());
    Record(model, auc, logloss, params, &telemetry, extra);
  }

  /// Attaches an arbitrary JSON value to the current section's last row
  /// (e.g. search dynamics for the row's search stage). No-op when no row
  /// exists yet.
  void AnnotateLastRow(const std::string& key, obs::JsonValue v) {
    if (sections_.empty() || sections_.back().second.size() == 0) return;
    obs::JsonValue& rows = sections_.back().second;
    rows.at(rows.size() - 1).Set(key, std::move(v));
  }

  /// Writes the report when --report was given. Returns the process exit
  /// code (non-zero on report IO failure).
  int Finish() {
    if (path_.empty()) return 0;
    obs::RunReport report(run_name_);
    obs::JsonValue results = obs::JsonValue::MakeObject();
    for (auto& [title, rows] : sections_) {
      results.Set(title, std::move(rows));
    }
    report.AddSection("results", std::move(results));
    report.CaptureMetrics();
    report.CaptureSpans();
    std::string error;
    if (!report.WriteFile(path_, &error)) {
      std::fprintf(stderr, "failed to write report %s: %s\n", path_.c_str(),
                   error.c_str());
      return 1;
    }
    std::printf("\nrun report written to %s\n", path_.c_str());
    return 0;
  }

 private:
  void Record(const std::string& model, double auc, double logloss,
              size_t params, const TrainTelemetry* telemetry,
              const std::string& extra) {
    if (sections_.empty()) {
      sections_.emplace_back("results", obs::JsonValue::MakeArray());
    }
    obs::JsonValue row = obs::JsonValue::MakeObject();
    row.Set("model", obs::JsonValue::Str(model));
    row.Set("auc", obs::JsonValue::Double(auc));
    row.Set("logloss", obs::JsonValue::Double(logloss));
    row.Set("params", obs::JsonValue::Uint(params));
    if (telemetry != nullptr) {
      row.Set("telemetry", TelemetryToJson(*telemetry));
    }
    if (!extra.empty()) row.Set("extra", obs::JsonValue::Str(extra));
    sections_.back().second.Push(std::move(row));
  }

  std::string run_name_;
  std::string path_;
  std::vector<std::pair<std::string, obs::JsonValue>> sections_;
};

}  // namespace bench
}  // namespace optinter

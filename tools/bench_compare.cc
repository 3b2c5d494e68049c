// bench_compare: regression gate over two bench-report JSON files.
//
//   bench_compare --baseline=BENCH_kernels.json --baseline_section=after
//                 --current=bench_now.json --metrics=gflops --threshold=0.10
//
// Loads a baseline and a current report, extracts a common (benchmark,
// metric) -> value table from each, and fails when any shared metric got
// worse by more than the allowed relative threshold. Three report shapes
// are auto-detected:
//
//   1. google-benchmark JSON (micro_kernels --report / --benchmark_out):
//      the "benchmarks" array; FLOPS/BYTES/items_per_second counters are
//      normalized to gflops / gbytes_per_s / mitems_per_s, and cpu_time
//      is kept as a lower-is-better metric.
//   2. Committed section files (BENCH_kernels.json): named sections each
//      carrying a "results" object of {benchmark: {metric: number}};
//      select with --baseline_section / --current_section (default:
//      "after" when present, else the first section with results).
//   3. RunReport output (bench_embedding_tradeoff --report, the
//      table/figure benches' --report): the "results" section, rows
//      either objects of numbers or keyed row objects.
//
// Direction is inferred per metric: names mentioning time / latency /
// seconds / loss count as lower-is-better, everything else (throughput)
// as higher-is-better. Thresholds are relative ("0.10" = tolerate a 10%
// regression); --metric_thresholds=gflops=0.15,cpu_time=0.3 overrides
// per metric. A machine-readable verdict can be written with --output.
//
// Metrics present only in the current report (a freshly added bench or
// counter the committed baseline predates) are reported as "new" —
// informational, never a failure — so new coverage shows up in the gate
// output instead of being silently skipped.
//
// Exit codes: 0 = pass, 1 = regression detected, 2 = usage / IO error.

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "obs/json.h"

using optinter::FlagParser;
using optinter::obs::JsonValue;

namespace {

// (benchmark name, metric name) -> value.
using MetricTable = std::map<std::string, std::map<std::string, double>>;

std::string ToLower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

bool LowerIsBetter(const std::string& metric) {
  const std::string m = ToLower(metric);
  for (const char* marker :
       {"time", "latency", "seconds", "loss", "_ns", "_us", "_ms",
        "dropped", "rejected"}) {
    if (m.find(marker) != std::string::npos) return true;
  }
  return false;
}

bool ReadFile(const std::string& path, std::string* out, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open " + path;
    return false;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

// Shape 1: google-benchmark JSON.
bool ExtractGoogleBenchmark(const JsonValue& doc, MetricTable* table) {
  const JsonValue* benches = doc.Find("benchmarks");
  if (benches == nullptr || benches->type() != JsonValue::Type::kArray) {
    return false;
  }
  for (size_t i = 0; i < benches->size(); ++i) {
    const JsonValue& b = benches->at(i);
    const JsonValue* name = b.Find("name");
    if (name == nullptr) continue;
    const JsonValue* run_type = b.Find("run_type");
    if (run_type != nullptr && run_type->string_value() == "aggregate") {
      continue;  // medians/stddev rows would double-count the raw runs
    }
    std::map<std::string, double>& row = (*table)[name->string_value()];
    if (const JsonValue* v = b.Find("FLOPS"); v != nullptr && v->is_number()) {
      row["gflops"] = v->number() / 1e9;
    }
    if (const JsonValue* v = b.Find("BYTES"); v != nullptr && v->is_number()) {
      row["gbytes_per_s"] = v->number() / 1e9;
    }
    if (const JsonValue* v = b.Find("items_per_second");
        v != nullptr && v->is_number()) {
      row["mitems_per_s"] = v->number() / 1e6;
    }
    if (const JsonValue* v = b.Find("cpu_time");
        v != nullptr && v->is_number()) {
      row["cpu_time"] = v->number();
    }
  }
  return !table->empty();
}

void ExtractNumberRow(const JsonValue& row_obj,
                      std::map<std::string, double>* row) {
  for (const auto& [metric, value] : row_obj.members()) {
    if (value.is_number()) (*row)[metric] = value.number();
  }
}

// A "results" object: {benchmark: {metric: number}}. Also tolerates rows
// that are arrays of keyed row objects (RunReport table sections).
bool ExtractResultsObject(const JsonValue& results, MetricTable* table) {
  if (results.type() != JsonValue::Type::kObject) return false;
  for (const auto& [name, row] : results.members()) {
    if (row.type() == JsonValue::Type::kObject) {
      std::map<std::string, double> values;
      ExtractNumberRow(row, &values);
      if (!values.empty()) (*table)[name] = std::move(values);
    } else if (row.type() == JsonValue::Type::kArray) {
      for (size_t i = 0; i < row.size(); ++i) {
        const JsonValue& entry = row.at(i);
        if (entry.type() != JsonValue::Type::kObject) continue;
        std::string key = name + "/" + std::to_string(i);
        for (const char* id : {"model", "name", "section"}) {
          if (const JsonValue* v = entry.Find(id);
              v != nullptr && v->type() == JsonValue::Type::kString) {
            key = name + "/" + v->string_value();
            break;
          }
        }
        std::map<std::string, double> values;
        ExtractNumberRow(entry, &values);
        if (!values.empty()) (*table)[key] = std::move(values);
      }
    }
  }
  return !table->empty();
}

// Shapes 2 and 3: a section (or the document root) carrying "results".
bool ExtractSectioned(const JsonValue& doc, const std::string& section,
                      MetricTable* table, std::string* error) {
  const JsonValue* node = &doc;
  if (!section.empty()) {
    node = doc.Find(section);
    if (node == nullptr) {
      *error = "section '" + section + "' not found";
      return false;
    }
  } else if (doc.Find("results") == nullptr) {
    // No section requested and no top-level results: prefer "after", else
    // the first member that carries a results object.
    if (const JsonValue* after = doc.Find("after");
        after != nullptr && after->Find("results") != nullptr) {
      node = after;
    } else {
      for (const auto& [key, value] : doc.members()) {
        if (value.Find("results") != nullptr) {
          node = &value;
          break;
        }
      }
    }
  }
  const JsonValue* results = node->Find("results");
  if (results == nullptr) results = node;  // bare {benchmark: {...}} maps
  if (!ExtractResultsObject(*results, table)) {
    *error = "no numeric results found";
    return false;
  }
  return true;
}

bool LoadTable(const std::string& path, const std::string& section,
               MetricTable* table, std::string* error) {
  std::string text;
  if (!ReadFile(path, &text, error)) return false;
  JsonValue doc;
  if (!JsonValue::Parse(text, &doc, error)) {
    *error = path + ": " + *error;
    return false;
  }
  if (section.empty() && ExtractGoogleBenchmark(doc, table)) return true;
  if (!ExtractSectioned(doc, section, table, error)) {
    *error = path + ": " + *error;
    return false;
  }
  return true;
}

std::set<std::string> SplitList(const std::string& csv) {
  std::set<std::string> out;
  std::string item;
  std::istringstream ss(csv);
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.insert(item);
  }
  return out;
}

bool ParseThresholdOverrides(const std::string& spec,
                             std::map<std::string, double>* out,
                             std::string* error) {
  std::string item;
  std::istringstream ss(spec);
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    const size_t eq = item.find('=');
    if (eq == std::string::npos) {
      *error = "bad --metric_thresholds entry '" + item + "' (want k=v)";
      return false;
    }
    try {
      (*out)[item.substr(0, eq)] = std::stod(item.substr(eq + 1));
    } catch (...) {
      *error = "bad threshold value in '" + item + "'";
      return false;
    }
  }
  return true;
}

struct Comparison {
  std::string benchmark;
  std::string metric;
  double baseline = 0.0;
  double current = 0.0;
  double change = 0.0;  // signed relative change, + = higher than baseline
  double threshold = 0.0;
  bool lower_is_better = false;
  bool regression = false;
};

/// A (benchmark, metric) present in the current report but absent from
/// the baseline — a freshly added bench or counter. Reported
/// informationally (never a regression) so new coverage is visible in the
/// gate's output instead of silently skipped; commit an updated baseline
/// to start gating it.
struct NewMetric {
  std::string benchmark;
  std::string metric;
  double current = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  flags.AddString("baseline", "", "baseline report JSON (required)");
  flags.AddString("current", "", "current report JSON (required)");
  flags.AddString("baseline_section", "",
                  "section of the baseline file to compare (auto-detect "
                  "when empty)");
  flags.AddString("current_section", "",
                  "section of the current file to compare (auto-detect "
                  "when empty)");
  flags.AddString("metrics", "",
                  "comma-separated metrics to gate on (empty = all shared "
                  "metrics)");
  flags.AddDouble("threshold", 0.10,
                  "allowed relative regression (0.10 = 10%)");
  flags.AddString("metric_thresholds", "",
                  "per-metric overrides, e.g. gflops=0.15,cpu_time=0.3");
  flags.AddString("output", "", "write the JSON verdict here");
  if (optinter::Status st = flags.Parse(argc, argv); !st.ok()) {
    if (st.message() == "help requested") return 0;
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 2;
  }
  const std::string baseline_path = flags.GetString("baseline");
  const std::string current_path = flags.GetString("current");
  if (baseline_path.empty() || current_path.empty()) {
    std::fprintf(stderr, "--baseline and --current are required\n%s",
                 flags.Usage("bench_compare").c_str());
    return 2;
  }

  std::string error;
  MetricTable baseline, current;
  if (!LoadTable(baseline_path, flags.GetString("baseline_section"),
                 &baseline, &error) ||
      !LoadTable(current_path, flags.GetString("current_section"), &current,
                 &error)) {
    std::fprintf(stderr, "bench_compare: %s\n", error.c_str());
    return 2;
  }

  const std::set<std::string> wanted = SplitList(flags.GetString("metrics"));
  const double default_threshold = flags.GetDouble("threshold");
  std::map<std::string, double> thresholds;
  if (!ParseThresholdOverrides(flags.GetString("metric_thresholds"),
                               &thresholds, &error)) {
    std::fprintf(stderr, "bench_compare: %s\n", error.c_str());
    return 2;
  }

  std::vector<Comparison> comparisons;
  size_t regressions = 0;
  for (const auto& [name, base_row] : baseline) {
    const auto cur_it = current.find(name);
    if (cur_it == current.end()) continue;
    for (const auto& [metric, base_value] : base_row) {
      if (!wanted.empty() && wanted.count(metric) == 0) continue;
      const auto metric_it = cur_it->second.find(metric);
      if (metric_it == cur_it->second.end()) continue;
      Comparison c;
      c.benchmark = name;
      c.metric = metric;
      c.baseline = base_value;
      c.current = metric_it->second;
      c.lower_is_better = LowerIsBetter(metric);
      const auto t = thresholds.find(metric);
      c.threshold = t != thresholds.end() ? t->second : default_threshold;
      if (base_value != 0.0) {
        c.change = (c.current - c.baseline) / std::fabs(c.baseline);
        const double worse = c.lower_is_better ? c.change : -c.change;
        c.regression = worse > c.threshold;
      } else {
        // Zero baseline: only flag when a lower-is-better metric became
        // nonzero (e.g. rejected requests appearing).
        c.change = 0.0;
        c.regression = c.lower_is_better && c.current > 0.0;
      }
      if (c.regression) ++regressions;
      comparisons.push_back(std::move(c));
    }
  }

  // Metrics only the current report has: new benches/counters that the
  // committed baseline predates.
  std::vector<NewMetric> fresh;
  for (const auto& [name, cur_row] : current) {
    const auto base_it = baseline.find(name);
    for (const auto& [metric, value] : cur_row) {
      if (!wanted.empty() && wanted.count(metric) == 0) continue;
      if (base_it != baseline.end() &&
          base_it->second.count(metric) != 0) {
        continue;
      }
      fresh.push_back({name, metric, value});
    }
  }

  if (comparisons.empty() && fresh.empty()) {
    std::fprintf(stderr,
                 "bench_compare: no overlapping (benchmark, metric) pairs "
                 "between %s and %s\n",
                 baseline_path.c_str(), current_path.c_str());
    return 2;
  }

  std::sort(comparisons.begin(), comparisons.end(),
            [](const Comparison& a, const Comparison& b) {
              if (a.regression != b.regression) return a.regression;
              return a.benchmark < b.benchmark;
            });
  for (const Comparison& c : comparisons) {
    std::printf("%-8s %-40s %-14s %12.4g -> %12.4g  %+7.1f%% (limit %s%.0f%%)\n",
                c.regression ? "REGRESS" : "ok", c.benchmark.c_str(),
                c.metric.c_str(), c.baseline, c.current, c.change * 100.0,
                c.lower_is_better ? "+" : "-", c.threshold * 100.0);
  }
  for (const NewMetric& n : fresh) {
    std::printf("%-8s %-40s %-14s %12s -> %12.4g  (no baseline; "
                "informational)\n",
                "new", n.benchmark.c_str(), n.metric.c_str(), "-",
                n.current);
  }
  std::printf("%zu comparison(s), %zu regression(s), %zu new metric(s)\n",
              comparisons.size(), regressions, fresh.size());

  const std::string output_path = flags.GetString("output");
  if (!output_path.empty()) {
    JsonValue verdict = JsonValue::MakeObject();
    verdict.Set("status",
                JsonValue::Str(regressions > 0 ? "regression" : "pass"));
    verdict.Set("baseline", JsonValue::Str(baseline_path));
    verdict.Set("current", JsonValue::Str(current_path));
    verdict.Set("comparisons", JsonValue::Uint(comparisons.size()));
    verdict.Set("regressions", JsonValue::Uint(regressions));
    verdict.Set("new_metrics", JsonValue::Uint(fresh.size()));
    JsonValue rows = JsonValue::MakeArray();
    for (const Comparison& c : comparisons) {
      JsonValue row = JsonValue::MakeObject();
      row.Set("benchmark", JsonValue::Str(c.benchmark));
      row.Set("metric", JsonValue::Str(c.metric));
      row.Set("baseline", JsonValue::Double(c.baseline));
      row.Set("current", JsonValue::Double(c.current));
      row.Set("relative_change", JsonValue::Double(c.change));
      row.Set("threshold", JsonValue::Double(c.threshold));
      row.Set("lower_is_better", JsonValue::Bool(c.lower_is_better));
      row.Set("regression", JsonValue::Bool(c.regression));
      row.Set("new", JsonValue::Bool(false));
      rows.Push(std::move(row));
    }
    for (const NewMetric& n : fresh) {
      JsonValue row = JsonValue::MakeObject();
      row.Set("benchmark", JsonValue::Str(n.benchmark));
      row.Set("metric", JsonValue::Str(n.metric));
      row.Set("current", JsonValue::Double(n.current));
      row.Set("new", JsonValue::Bool(true));
      row.Set("regression", JsonValue::Bool(false));
      rows.Push(std::move(row));
    }
    verdict.Set("results", std::move(rows));
    std::ofstream out(output_path);
    if (!out) {
      std::fprintf(stderr, "bench_compare: cannot write %s\n",
                   output_path.c_str());
      return 2;
    }
    out << verdict.Serialize(/*indent=*/2) << "\n";
  }

  return regressions > 0 ? 1 : 0;
}

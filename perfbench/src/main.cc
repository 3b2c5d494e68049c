// perfbench: the repo's canonical end-to-end benchmark.
//
//   perfbench --workload <search_retrain|stream_train> --seed <n>
//             --seconds <s> --trace <0|1> --work_dir <dir>
//
// Every workload runs the same pipeline — encode → search → (re)train →
// eval → quantize → serve — on its own input regime, with the time budget
// spent where the workload's name says (see perfbench/README.md). With
// --trace 0 the result line carries the end-to-end metrics, measured with
// the program's spans off. With --trace 1 the pipeline runs twice (spans
// off, then on), the per-layer probes run, and the result line carries the
// per-layer metrics; the report line before it holds the span tree and the
// traced-minus-untraced difference of every end-to-end metric.
//
// The last stdout line is the result: {"correct", "attempted", "failed",
// "metrics"}. The line before it starts with "report " and holds the
// supplementary JSON report (fingerprint, sample counts, spans).

#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"
#include "common/thread_pool.h"
#include "obs/counters.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "tensor/dispatch.h"
#include "tensor/kernels.h"

namespace perfbench {
namespace {

using optinter::obs::JsonValue;

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = val;
    } else if (key == "--seed") {
      args->seed = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return false;
      args->trace = val == "1";
    } else if (key == "--work_dir") {
      args->work_dir = val;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !args->workload.empty() &&
         !args->work_dir.empty();
}

JsonValue Fingerprint(const Args& args, const WorkloadSpec& spec) {
  const optinter::obs::CounterStatus hw = optinter::obs::CountersStatus();
  JsonValue fp = JsonValue::MakeObject();
  fp.Set("workload", JsonValue::Str(args.workload));
  fp.Set("seed", JsonValue::Uint(args.seed));
  fp.Set("seconds", JsonValue::Double(args.seconds));
  fp.Set("profile", JsonValue::Str(spec.profile));
  fp.Set("row_scale", JsonValue::Double(spec.row_scale));
  fp.Set("nproc", JsonValue::Int(sysconf(_SC_NPROCESSORS_ONLN)));
  fp.Set("kernel_backend",
         JsonValue::Str(optinter::ActiveKernelBackend()));
  fp.Set("compiled_simd", JsonValue::Str(optinter::SimdBackendName()));
  fp.Set("pool_threads",
         JsonValue::Uint(optinter::ThreadPool::Global().num_threads()));
  fp.Set("spans", JsonValue::Str(args.trace ? "off,on" : "off"));
  fp.Set("hw_counters", JsonValue::Bool(hw.hardware));
  fp.Set("hw_counters_reason", JsonValue::Str(hw.degradation_reason));
  fp.Set("compiler", JsonValue::Str(__VERSION__));
  return fp;
}

/// `args` with its own scratch subdirectory, so that each pass's shards and
/// checkpoints are only ever read by that pass.
bool PassArgs(const Args& args, const char* sub, Args* pass) {
  *pass = args;
  pass->work_dir = args.work_dir + "/" + sub;
  return ::mkdir(pass->work_dir.c_str(), 0755) == 0 || errno == EEXIST;
}

void PrintResult(const Ledger& ledger, bool correct) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(ledger.attempted());
  line += ", \"failed\": " + std::to_string(ledger.failed());
  line += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : ledger.metrics()) {
    // Non-finite values were already counted as failures; keep the line
    // valid JSON.
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (!first) line += ", ";
    first = false;
    line += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --work_dir DIR\n");
    return 2;
  }
  const WorkloadSpec spec = GetWorkload(args.workload);
  if (spec.name.empty()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  Args untraced_args, traced_args;
  if ((::mkdir(args.work_dir.c_str(), 0755) != 0 && errno != EEXIST) ||
      !PassArgs(args, "untraced", &untraced_args) ||
      !PassArgs(args, "traced", &traced_args)) {
    std::fprintf(stderr, "cannot create scratch directories in %s\n",
                 args.work_dir.c_str());
    return 2;
  }
  // End-to-end numbers are measured with the program's spans off and the
  // kernel pool pinned to one worker: on shared VMs the throughput of
  // concurrent threads swings by 2x from run to run while one thread stays
  // within a few percent. Scaling is a per-layer metric
  // (train.thread_scaling).
  optinter::obs::SetEnabled(false);
  optinter::ThreadPool::SetGlobalThreads(1);

  Ledger e2e;
  PipelineState state;
  RunPipeline(untraced_args, spec, &state, &e2e);
  e2e.Set("peak_rss_mb", PeakRssMb(), "MB");

  JsonValue report = JsonValue::MakeObject();
  report.Set("fingerprint", Fingerprint(args, spec));
  report.Set("end_to_end_notes", e2e.notes());

  Ledger* result = &e2e;
  Ledger layers;
  if (args.trace) {
    // Same pipeline with the program's spans on: the span tree is the
    // supplementary attribution, the metric deltas are the tracing cost.
    Ledger traced;
    {
      PipelineState traced_state;
      optinter::obs::Tracer::Reset();
      optinter::obs::SetEnabled(true);
      RunPipeline(traced_args, spec, &traced_state, &traced);
      optinter::obs::SetEnabled(false);
      traced.Set("peak_rss_mb", PeakRssMb(), "MB");
    }
    JsonValue overhead = JsonValue::MakeObject();
    for (const Metric& m : traced.metrics()) {
      const Metric* base = e2e.Find(m.name);
      if (base == nullptr) continue;
      JsonValue row = JsonValue::MakeObject();
      row.Set("untraced", JsonValue::Double(base->value));
      row.Set("traced", JsonValue::Double(m.value));
      row.Set("traced_minus_untraced",
              JsonValue::Double(m.value - base->value));
      row.Set("unit", JsonValue::Str(m.unit));
      overhead.Set(m.name, std::move(row));
    }
    report.Set("tracing_overhead", std::move(overhead));
    report.Set("spans", optinter::obs::Tracer::ToJson(
                            optinter::obs::Tracer::Collect()));
    layers.Count(traced.attempted(), traced.failed(), "traced pipeline");
    layers.Count(e2e.attempted(), e2e.failed(), "untraced pipeline");
    RunProbes(untraced_args, spec, &state, &layers);
    report.Set("per_layer_notes", layers.notes());
    result = &layers;
  }

  bool correct = result->failed() == 0;
  for (const Metric& m : result->metrics()) {
    if (!std::isfinite(m.value)) {
      correct = false;
      result->Check(false, "non-finite metric " + m.name);
    }
  }
  report.Set("failures", result->failures());
  std::printf("report %s\n", report.Serialize().c_str());
  PrintResult(*result, correct);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

// Shared types of the canonical benchmark: exact client-side sample
// statistics, the metric ledger that becomes the result line, and the
// per-run state the pipeline stages hand to each other.

#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/fixed_arch_model.h"
#include "data/batch.h"
#include "data/stream_encode.h"
#include "data/stream_reader.h"
#include "models/hyperparams.h"
#include "obs/json.h"
#include "synth/generator.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Raw timings kept on the client side; percentiles are exact order
/// statistics of the recorded values (nearest rank), never bucket
/// interpolations.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t size() const { return values_.size(); }

  /// Nearest-rank percentile, p in (0, 100].
  double Percentile(double p) const;
  double Median() const { return Percentile(50.0); }
  /// The samples split into `windows` consecutive runs (recording order),
  /// the nearest-rank percentile p of each, and the median of those: a
  /// percentile that one short host stall cannot decide on its own.
  double WindowedPercentile(double p, size_t windows = 10) const;
  /// Percentile p of the last of `windows` consecutive runs.
  double LastWindowPercentile(double p, size_t windows = 10) const;
  /// The highest of p50/p90/p99/p99.9/p99.99 with at least ten samples
  /// above its rank (0 when fewer than 20 samples exist).
  double SupportedPercentile() const;
  /// {"n", "p50", "p<k>" for the supported percentile}.
  optinter::obs::JsonValue Summary() const;

 private:
  std::vector<double> values_;            // recording order
  mutable std::vector<double> sorted_;    // rebuilt when stale
};

/// Row ids begin, begin + 1, ..., end − 1.
inline std::vector<size_t> Range(size_t begin, size_t end) {
  std::vector<size_t> v(end - begin);
  for (size_t i = 0; i < v.size(); ++i) v[i] = begin + i;
  return v;
}

/// Median of a small set of repeated measurements.
double MedianOf(std::vector<double> v);

/// Peak resident set (VmHWM) of this process in MB, less the host-speed
/// reference's buffer, which stays resident from its first use on.
double PeakRssMb();

/// The host's speed right now relative to the nominal host (1 there; about
/// 0.6 in a slow spell), from a fixed reference kernel that is the
/// benchmark's own code (host_speed.cc). Takes about 30 ms.
double HostSpeed();
/// Size of the reference kernel's buffer once allocated, else 0.
double HostSpeedBufferMb();

/// One named metric of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Metrics, output checks and the supplementary report of one run.
class Ledger {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& metrics() const { return metrics_; }
  const Metric* Find(const std::string& name) const;

  /// One output check: counts as attempted, and as failed when !ok.
  /// Failures are also listed in the report with `what`.
  void Check(bool ok, const std::string& what);
  /// Bulk accounting (served requests, swaps).
  void Count(uint64_t attempted, uint64_t failed, const std::string& what);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  /// Supplementary report sections (sample counts, fingerprint, spans).
  void Note(const std::string& key, optinter::obs::JsonValue v);
  optinter::obs::JsonValue& notes() { return notes_; }
  const optinter::obs::JsonValue& failures() const { return failures_; }

 private:
  std::vector<Metric> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  optinter::obs::JsonValue notes_ = optinter::obs::JsonValue::MakeObject();
  optinter::obs::JsonValue failures_ = optinter::obs::JsonValue::MakeArray();
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for shards and checkpoints (inside the checkout).
  std::string work_dir;
};

/// How the served / retrained architecture is chosen.
enum class ArchSource {
  kSearched,        // argmax of the search stage (Alg. 1 → Eq. 19),
                    // retrained once; the timed retrains and the served
                    // model use the planted (oracle) pairs
  kMemorizeHeavy,   // planted pairs plus every pair with the widest
                    // field memorized
};

/// Input regime and time split of one workload.
struct WorkloadSpec {
  std::string name;
  std::string profile;
  double row_scale = 1.0;
  bool hashed = false;
  size_t hash_buckets = 1 << 16;
  size_t rows_per_shard = 1 << 14;
  size_t max_resident_shards = 4;
  bool streamed = false;      // train/eval through the shard reader
  ArchSource arch = ArchSource::kSearched;
  size_t probe_search_rows = 0;  // kMemorizeHeavy: 1-epoch search on a prefix
  size_t train_epochs = 3;
  size_t patience = 1;
  size_t encodes_per_round = 1;
};

/// Window-shuffle block count of the streamed batchers.
inline constexpr size_t kWindowBlocks = 2;

WorkloadSpec GetWorkload(const std::string& name);

class ServeHarness;

/// Everything one pass of the pipeline produces; the probes reuse it.
struct PipelineState {
  optinter::SynthConfig config;
  optinter::HyperParams hp;
  /// Rebuilt by every set-up; the same seed gives the same rows.
  std::unique_ptr<optinter::RowSource> source;
  std::string shard_dir;
  optinter::StreamEncodeStats encode_stats;
  std::unique_ptr<optinter::StreamingReader> reader;
  /// In-RAM rows: the whole dataset (in-RAM workloads) or a train-prefix
  /// sample read through FillBatch (streamed workload).
  optinter::EncodedDataset data;
  optinter::Splits splits;
  /// Contiguous ranges of the shard dir (streamed workload).
  size_t train_end = 0;
  size_t val_end = 0;
  /// Rows requests are drawn from (test rows) and their dataset.
  optinter::EncodedDataset request_data;
  std::vector<size_t> request_rows;
  /// The dataset models are constructed against.
  const optinter::EncodedDataset* model_data = nullptr;
  optinter::Architecture arch;
  std::unique_ptr<optinter::FixedArchModel> model;
  std::shared_ptr<ServeHarness> serve;
  double predict_now_p50_us_fp32 = 0.0;  // pooled over slices
  double predict_now_p50_us_int8 = 0.0;
  /// Serving figures measured by the pipeline's serving stage but too
  /// unsteady on shared VMs for a bound; the probes report them per layer.
  std::vector<Metric> serving_layers;
  double train_step_ms = 0.0;  // wall per pipelined train step
};

/// Runs the workload's pipeline once and records its end-to-end metrics,
/// `setup_s` included. Shards and checkpoints go to `args.work_dir`.
void RunPipeline(const Args& args, const WorkloadSpec& spec,
                 PipelineState* state, Ledger* ledger);

/// Quantize → closed-loop PredictNow → open-loop Submit with hot-swaps.
void RunServing(const Args& args, double budget_s, PipelineState* state,
                Ledger* ledger);

/// Per-layer measurements from outside, using the pipeline's artifacts.
void RunProbes(const Args& args, const WorkloadSpec& spec,
               PipelineState* state, Ledger* layers);

}  // namespace perfbench

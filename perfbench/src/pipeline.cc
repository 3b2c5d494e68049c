// The canonical pipeline every workload runs: encode → search → (re)train
// → eval → serve, plus the workload table and the shared statistics.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <initializer_list>

#include "bench.h"
#include "core/pipeline.h"
#include "obs/registry.h"
#include "synth/profiles.h"
#include "synth/stream_source.h"
#include "train/stream_trainer.h"

namespace perfbench {

using optinter::obs::JsonValue;
namespace fs = std::filesystem;

// --- Statistics -----------------------------------------------------------

namespace {

double NearestRank(std::vector<double>* v, double p) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  const double n = static_cast<double>(v->size());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<size_t>(rank, 1, v->size());
  return (*v)[rank - 1];
}

}  // namespace

double Samples::Percentile(double p) const {
  if (sorted_.size() != values_.size()) sorted_ = values_;
  return NearestRank(&sorted_, p);
}

double Samples::WindowedPercentile(double p, size_t windows) const {
  const size_t n = values_.size();
  if (n < windows) return Percentile(p);
  std::vector<double> per_window;
  for (size_t w = 0; w < windows; ++w) {
    std::vector<double> chunk(values_.begin() + w * n / windows,
                              values_.begin() + (w + 1) * n / windows);
    per_window.push_back(NearestRank(&chunk, p));
  }
  return MedianOf(per_window);
}

double Samples::LastWindowPercentile(double p, size_t windows) const {
  const size_t n = values_.size();
  const size_t last = n / std::max<size_t>(1, windows);
  std::vector<double> chunk(values_.end() - last, values_.end());
  if (chunk.empty()) return Percentile(p);
  return NearestRank(&chunk, p);
}

double Samples::SupportedPercentile() const {
  double best = 0.0;
  for (const double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    const double n = static_cast<double>(values_.size());
    const double beyond = n - std::ceil(p / 100.0 * n);
    if (beyond >= 10.0) best = p;
  }
  return best;
}

JsonValue Samples::Summary() const {
  JsonValue s = JsonValue::MakeObject();
  s.Set("n", JsonValue::Uint(values_.size()));
  s.Set("p50", JsonValue::Double(Median()));
  const double supported = SupportedPercentile();
  for (const double p : {90.0, 99.0, 99.9, 99.99}) {
    if (p > supported) break;
    char key[16];
    std::snprintf(key, sizeof(key), "p%g", p);
    s.Set(key, JsonValue::Double(Percentile(p)));
  }
  return s;
}

double MedianOf(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double PeakRssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  size_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %zu kB", &kb) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kb) / 1024.0 - HostSpeedBufferMb();
}

void Ledger::Set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

const Metric* Ledger::Find(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void Ledger::Check(bool ok, const std::string& what) {
  Count(1, ok ? 0 : 1, what);
}

void Ledger::Count(uint64_t attempted, uint64_t failed,
                   const std::string& what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0) {
    failures_.Push(JsonValue::Str(what + " (" + std::to_string(failed) + "/" +
                                  std::to_string(attempted) + ")"));
  }
}

void Ledger::Note(const std::string& key, JsonValue v) {
  notes_.Set(key, std::move(v));
}

// --- Workloads ------------------------------------------------------------

WorkloadSpec GetWorkload(const std::string& name) {
  WorkloadSpec s;
  if (name == "search_retrain") {
    s.profile = "criteo_like";
    s.row_scale = 0.3;
    s.arch = ArchSource::kSearched;
    s.train_epochs = 4;
    s.patience = 1;
    s.encodes_per_round = 3;
  } else if (name == "stream_train") {
    // Device_ID-like field of 30K values; every cross with it is
    // memorized, so the cross tables are large and the step is
    // embedding-bound rather than GEMM-bound.
    s.profile = "avazu_like";
    s.row_scale = 1.0;
    s.hashed = true;
    s.hash_buckets = 1 << 14;
    s.rows_per_shard = 1 << 13;
    s.max_resident_shards = 3;
    s.streamed = true;
    s.arch = ArchSource::kMemorizeHeavy;
    s.probe_search_rows = 6000;
    s.train_epochs = 2;
    s.patience = 0;
  } else {
    return s;
  }
  s.name = name;
  return s;
}

namespace {

using optinter::Architecture;
using optinter::EncodedDataset;
using optinter::InterMethod;

/// Shares of --seconds: the repeated encode→search→retrain loop, then
/// serving. The loop gets most of it: its throughputs are medians over
/// spells of a fast and a slow host, which settle with more samples, while
/// the one bounded serving figure (batch1_p50_us.fp32) is steady already.
constexpr double kLoopShare = 0.65;
constexpr double kServeShare = 0.3;

optinter::SynthConfig MakeConfig(const WorkloadSpec& spec, uint64_t seed) {
  optinter::SynthConfig cfg = *optinter::GetProfile(spec.profile);
  optinter::ScaleRows(&cfg, spec.row_scale);
  // The planted pairs were drawn from the profile's own seed and stay
  // fixed; the rows (values, effects, labels) follow the run's seed.
  cfg.seed ^= (seed + 1) * 0x9E3779B97F4A7C15ULL;
  return cfg;
}

uint64_t TrainRowsCounter() {
  return optinter::obs::MetricsRegistry::Global()
      .GetCounter("train.rows")
      ->Value();
}

Architecture MakeArch(const WorkloadSpec& spec,
                      const optinter::SynthConfig& cfg) {
  const auto kinds = cfg.PlantedKinds();
  Architecture arch(kinds.size(), InterMethod::kNaive);
  for (size_t p = 0; p < kinds.size(); ++p) {
    if (kinds[p] == optinter::PlantedKind::kMemorize) {
      arch[p] = InterMethod::kMemorize;
    } else if (kinds[p] == optinter::PlantedKind::kFactorize) {
      arch[p] = InterMethod::kFactorize;
    }
  }
  if (spec.arch == ArchSource::kMemorizeHeavy) {
    // Pairs (0, j) come first in canonical order: memorize them all.
    for (size_t j = 1; j < cfg.num_categorical(); ++j) {
      arch[j - 1] = InterMethod::kMemorize;
    }
  }
  return arch;
}

/// Samples of one stage, each tagged with the host's speed while it was
/// taken.
struct Series {
  std::vector<double> raw;
  std::vector<double> speed;

  /// Median of the samples scaled to the nominal host: rates ÷ speed, or
  /// (`is_time`) times × speed.
  double Nominal(bool is_time) const {
    std::vector<double> v(raw.size());
    for (size_t i = 0; i < raw.size(); ++i) {
      v[i] = is_time ? raw[i] * speed[i] : raw[i] / speed[i];
    }
    return MedianOf(std::move(v));
  }
  JsonValue Report() const {
    JsonValue r = JsonValue::MakeObject();
    JsonValue a = JsonValue::MakeArray();
    JsonValue b = JsonValue::MakeArray();
    for (double x : raw) a.Push(JsonValue::Double(x));
    for (double x : speed) b.Push(JsonValue::Double(x));
    r.Set("raw", std::move(a));
    r.Set("host_speed", std::move(b));
    return r;
  }
};

/// Runs `call`, which appends samples to `series`, and tags each new sample
/// with the mean host speed just before and just after the call.
template <typename Fn>
void Paired(std::initializer_list<Series*> series, Fn&& call) {
  const double before = HostSpeed();
  call();
  const double speed = 0.5 * (before + HostSpeed());
  for (Series* s : series) s->speed.resize(s->raw.size(), speed);
}

bool Finite(const optinter::EvalMetrics& m) {
  return std::isfinite(m.auc) && std::isfinite(m.logloss) && m.auc > 0.0;
}

/// Reads global rows [begin, end) of the shard dir into an in-RAM dataset
/// (row k of `out` = global row begin + k).
bool ReadRows(optinter::StreamingReader* reader, size_t begin, size_t end,
              EncodedDataset* out) {
  const std::vector<size_t> rows = Range(begin, end);
  return reader->FillBatch(rows.data(), rows.size(), out).ok();
}

/// The set-up every round repeats: builds the row source for the seed (its
/// label-calibration pass), encodes it into a fresh shard directory and
/// opens the reader. Appends the encode's rate and the set-up's wall.
void SetUp(const Args& args, const WorkloadSpec& spec, PipelineState* st,
           Ledger* ledger, std::vector<double>* encode_rates,
           std::vector<double>* setup_walls) {
  optinter::StreamEncodeOptions eo;
  eo.build_cross = true;
  eo.rows_per_shard = spec.rows_per_shard;
  eo.hashed = spec.hashed;
  eo.hash_buckets = spec.hash_buckets;
  eo.fit_fraction = 0.7;
  st->model.reset();  // may reference the reader's metadata
  st->reader.reset();
  st->shard_dir = args.work_dir + "/shards";
  std::error_code ec;
  fs::remove_all(st->shard_dir, ec);
  fs::create_directories(st->shard_dir, ec);
  const auto start = Clock::now();
  st->config = MakeConfig(spec, args.seed);
  st->source = std::make_unique<optinter::SynthRowSource>(st->config);
  const auto t0 = Clock::now();
  auto stats =
      optinter::StreamEncodeToShards(st->source.get(), st->shard_dir, eo);
  const double wall = SecondsSince(t0);
  const bool ok = stats.ok() && stats->rows == st->config.num_rows;
  ledger->Check(ok, "encode");
  if (!ok) return;
  st->encode_stats = *stats;
  encode_rates->push_back(static_cast<double>(stats->rows) / wall);
  auto reader = optinter::StreamingReader::Open(
      st->shard_dir, {.max_resident_shards = spec.max_resident_shards});
  ledger->Check(reader.ok(), "open shards: " + reader.status().ToString());
  if (!reader.ok()) return;
  st->reader = std::move(*reader);
  setup_walls->push_back(SecondsSince(start));
}

/// In-RAM rows: the whole dataset, or (streamed) a train prefix for the
/// search run plus the test rows requests are drawn from.
void LoadRows(const WorkloadSpec& spec, PipelineState* st, Ledger* ledger) {
  const size_t n = st->reader->num_rows();
  st->train_end = static_cast<size_t>(static_cast<double>(n) * 0.7);
  st->val_end =
      st->train_end + static_cast<size_t>(static_cast<double>(n) * 0.1);
  const size_t kRequestRows = 2048;
  const size_t req_end = std::min(n, st->val_end + kRequestRows);
  if (spec.streamed) {
    const size_t p = std::min(spec.probe_search_rows, st->train_end);
    const bool ok = ReadRows(st->reader.get(), 0, p, &st->data) &&
                    ReadRows(st->reader.get(), st->val_end, req_end,
                             &st->request_data);
    ledger->Check(ok, "FillBatch of in-RAM samples");
    st->request_rows = Range(0, req_end - st->val_end);
    st->model_data = &st->reader->meta();
  } else {
    auto data = st->reader->Materialize();
    ledger->Check(data.ok(), "materialize: " + data.status().ToString());
    if (!data.ok()) return;
    st->data = std::move(*data);
    st->splits.train = Range(0, st->train_end);
    st->splits.val = Range(st->train_end, st->val_end);
    st->splits.test = Range(st->val_end, n);
    st->request_data = st->data;
    st->request_rows = Range(st->val_end, req_end);
    st->model_data = &st->data;
  }
}

/// Search stage. Full search (kSearched) over the train split, or a
/// one-epoch throughput run over a train prefix for the other workloads.
/// Returns the argmax architecture.
Architecture Search(const WorkloadSpec& spec, PipelineState* st,
                    Ledger* ledger, std::vector<double>* rates) {
  optinter::SearchOptions so;
  optinter::Splits splits = st->splits;
  if (spec.arch == ArchSource::kSearched) {
    so.search_epochs = 2;
  } else {
    so.search_epochs = 1;
    const size_t p = std::min(spec.probe_search_rows, st->data.num_rows);
    splits.train = Range(0, p * 8 / 10);
    splits.val = Range(p * 8 / 10, p * 9 / 10);
    splits.test = Range(p * 9 / 10, p);
  }
  optinter::SearchResult r =
      optinter::RunSearchStage(st->data, splits, st->hp, so);
  for (const optinter::EpochTelemetry& e : r.telemetry.epochs) {
    rates->push_back(e.train_rows_per_sec);
  }
  ledger->Check(!r.arch.empty() && r.arch.size() == st->data.num_pairs(),
                "searched architecture is empty or the wrong size");
  ledger->Check(Finite(r.search_val) && Finite(r.search_test),
                "search-model AUC/logloss not finite");
  return r.arch;
}

void Train(const WorkloadSpec& spec, PipelineState* st, Ledger* ledger,
           std::vector<double>* rates) {
  st->model = std::make_unique<optinter::FixedArchModel>(
      *st->model_data, st->arch, st->hp, "OptInter");
  const uint64_t rows_before = TrainRowsCounter();
  optinter::TrainSummary summary;
  size_t train_rows = 0;
  if (spec.streamed) {
    optinter::StreamTrainOptions so;
    so.epochs = spec.train_epochs;
    so.batch_size = st->hp.batch_size;
    so.seed = st->hp.seed;
    so.patience = spec.patience;
    so.train_frac = 0.7;
    so.val_frac = 0.1;
    so.order = optinter::StreamingBatcher::Order::kWindowShuffle;
    so.prefetch_batches = 2;
    so.window_blocks = kWindowBlocks;
    auto r = optinter::TrainModelStreamed(st->model.get(), st->reader.get(),
                                          so);
    ledger->Check(r.ok(), "streamed training: " + r.status().ToString());
    if (!r.ok()) return;
    summary = std::move(*r);
    train_rows = st->train_end;
  } else {
    optinter::TrainOptions to;
    to.epochs = spec.train_epochs;
    to.batch_size = st->hp.batch_size;
    to.seed = st->hp.seed;
    to.patience = spec.patience;
    summary = optinter::TrainModel(st->model.get(), st->data, st->splits, to);
    train_rows = st->splits.train.size();
  }
  const uint64_t stepped = TrainRowsCounter() - rows_before;
  ledger->Check(summary.epochs_run > 0 &&
                    stepped == train_rows * summary.epochs_run,
                "rows stepped != train range x epochs run");
  ledger->Check(Finite(summary.final_val) && Finite(summary.final_test),
                "retrain AUC/logloss not finite");
  for (const optinter::EpochTelemetry& e : summary.telemetry.epochs) {
    rates->push_back(e.train_rows_per_sec);
  }
  const size_t batch = st->hp.batch_size;
  const size_t steps = summary.epochs_run * ((train_rows + batch - 1) / batch);
  st->train_step_ms = summary.telemetry.train_seconds_total * 1e3 /
                      static_cast<double>(std::max<size_t>(1, steps));
}

/// Test-split evaluation, repeated; every repeat must give the same bits.
void Evaluate(const WorkloadSpec& spec, PipelineState* st, Ledger* ledger,
              std::vector<double>* rates, std::vector<double>* aucs) {
  constexpr int kRepeats = 5;
  double first_auc = 0.0;
  double first_ll = 0.0;
  for (int r = 0; r < kRepeats; ++r) {
    optinter::EvalMetrics m;
    size_t rows = 0;
    const auto t0 = Clock::now();
    if (spec.streamed) {
      const size_t n = st->reader->num_rows();
      auto res = optinter::EvaluateModelStreamed(
          st->model.get(), st->reader.get(), st->val_end, n);
      ledger->Check(res.ok(), "streamed eval: " + res.status().ToString());
      if (!res.ok()) return;
      m = *res;
      rows = n - st->val_end;
    } else {
      m = optinter::EvaluateModel(st->model.get(), st->data,
                                  st->splits.test);
      rows = st->splits.test.size();
    }
    rates->push_back(static_cast<double>(rows) / SecondsSince(t0));
    ledger->Check(Finite(m), "test AUC/logloss not finite");
    if (r == 0) {
      first_auc = m.auc;
      first_ll = m.logloss;
      aucs->push_back(m.auc);
    } else {
      ledger->Check(m.auc == first_auc && m.logloss == first_ll,
                    "repeated test eval changed bits");
    }
  }
}

}  // namespace

void RunPipeline(const Args& args, const WorkloadSpec& spec,
                 PipelineState* st, Ledger* ledger) {
  const auto start = Clock::now();
  st->hp = optinter::DefaultHyperParams(spec.profile);
  st->hp.seed = 2022 + args.seed;

  // Rounds of set-up (row source → encode → open) → search (→ argmax
  // freeze) → (re)train → test eval, at least kMinRounds and then until
  // the workload's share of the budget is spent. On shared VMs the host
  // runs this process in fast and slow spells of seconds (1.4–1.7x apart
  // for every stage), and the mix drifts over minutes, so no statistic of
  // raw times is steady from run to run. Each sample (every set-up and
  // encode, every search and training epoch, every eval) is therefore
  // scaled by the host's speed measured around it (HostSpeed), and each
  // metric is the median of the scaled samples: the rate or time on the
  // nominal host. The report keeps the raw samples and the speeds.
  //
  // The searched architecture differs from seed to seed, and so does the
  // cost of a step over it. The first round retrains and evaluates it once
  // (Alg. 2; its test AUC is the pipeline's output); the timed retrain and
  // eval of every round run on the generator's oracle architecture, which
  // is the same for every seed and is also the model served afterwards.
  // Every round must reproduce the same test AUC bit for bit.
  constexpr size_t kMinRounds = 4;
  Series setup, encode, search, train, eval;
  std::vector<double> aucs, searched_aucs;
  const double loop_budget = kLoopShare * args.seconds;
  for (size_t round = 0;
       round < kMinRounds || SecondsSince(start) < loop_budget; ++round) {
    for (size_t e = 0; e < spec.encodes_per_round; ++e) {
      Paired({&encode, &setup}, [&] {
        SetUp(args, spec, st, ledger, &encode.raw, &setup.raw);
      });
      if (ledger->failed() > 0) return;
    }
    LoadRows(spec, st, ledger);
    if (ledger->failed() > 0) return;
    Architecture searched;
    Paired({&search},
           [&] { searched = Search(spec, st, ledger, &search.raw); });
    if (ledger->failed() > 0) return;
    if (spec.arch == ArchSource::kSearched && round == 0) {
      std::vector<double> unused;
      st->arch = searched;
      Train(spec, st, ledger, &unused);
      if (ledger->failed() > 0) return;
      Evaluate(spec, st, ledger, &unused, &searched_aucs);
      if (ledger->failed() > 0) return;
    }
    st->arch = MakeArch(spec, st->config);
    Paired({&train}, [&] { Train(spec, st, ledger, &train.raw); });
    if (ledger->failed() > 0) return;
    Paired({&eval}, [&] { Evaluate(spec, st, ledger, &eval.raw, &aucs); });
    if (ledger->failed() > 0) return;
  }
  for (double auc : aucs) {
    ledger->Check(auc == aucs.front(), "repeated pipeline changed test AUC");
  }
  ledger->Set("setup_s", setup.Nominal(true), "s");
  ledger->Set("encode_rows_per_s", encode.Nominal(false), "rows/s");
  ledger->Set("search_rows_per_s", search.Nominal(false), "rows/s");
  ledger->Set("train_rows_per_s", train.Nominal(false), "rows/s");
  ledger->Set("eval_rows_per_s", eval.Nominal(false), "rows/s");
  ledger->Set("test_auc",
              searched_aucs.empty() ? aucs.front() : searched_aucs.front(),
              "auc");
  JsonValue loop = JsonValue::MakeObject();
  loop.Set("rounds", JsonValue::Uint(aucs.size()));
  loop.Set("params", JsonValue::Uint(st->model->ParamCount()));
  loop.Set("setup_s", setup.Report());
  loop.Set("encode_rows_per_s", encode.Report());
  loop.Set("search_epoch_rows_per_s", search.Report());
  loop.Set("train_epoch_rows_per_s", train.Report());
  loop.Set("eval_rows_per_s", eval.Report());
  ledger->Note("pipeline", std::move(loop));

  // The last round's model serves: the oracle architecture, so a change to
  // search cannot move the serving numbers.
  RunServing(args, kServeShare * args.seconds, st, ledger);
}

}  // namespace perfbench

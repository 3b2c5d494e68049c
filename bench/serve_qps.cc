// Serving latency/throughput harness: trains a small model, deploys it
// behind PredictServer, and drives concurrent clients against the
// micro-batcher (Submit) and synchronous batch-1 scoring (PredictNow)
// while a background thread hot-swaps checkpoints. Reports p50/p99
// latency and QPS from the serve.* histograms, plus flush/batch-size
// stats, and writes them as a JSON run report with --report=PATH.
//
// NOTE: inside a single-core container the clients, the flusher, and the
// kernel thread pool all share one core, so absolute QPS here is a smoke
// number, not a capacity figure — see EXPERIMENTS.md.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/fixed_arch_model.h"
#include "io/serialize.h"
#include "models/interaction.h"
#include "obs/registry.h"
#include "obs/run_report.h"
#include "serve/request.h"
#include "serve/server.h"

using namespace optinter;
using namespace optinter::bench;

namespace {

// Mixed assignment so the serving path exercises memorized, factorized
// and naive pairs at once (same shape the concurrency tests use).
Architecture MixedArch(size_t num_pairs) {
  Architecture arch(num_pairs, InterMethod::kNaive);
  if (num_pairs > 0) arch[0] = InterMethod::kMemorize;
  if (num_pairs > 1) arch[1] = InterMethod::kFactorize;
  return arch;
}

struct ServeSnapshotStats {
  uint64_t requests = 0;
  uint64_t rejected = 0;
  uint64_t flushes = 0;
  uint64_t swaps = 0;
};

ServeSnapshotStats ReadServeCounters() {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  ServeSnapshotStats s;
  s.requests = reg.GetCounter("serve.requests")->Value();
  s.rejected = reg.GetCounter("serve.rejected")->Value();
  s.flushes = reg.GetCounter("serve.flushes")->Value();
  s.swaps = reg.GetCounter("serve.swaps")->Value();
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  AddCommonFlags(&flags);
  flags.AddDouble("seconds", 3.0, "serving load duration per dataset");
  flags.AddInt("clients", 4, "concurrent client threads");
  flags.AddInt("max_batch", 64, "micro-batcher flush size");
  flags.AddInt("deadline_us", 200, "micro-batcher flush deadline");
  flags.AddInt("swap_every_ms", 250,
               "hot-swap interval during load (0 = no swapping)");
  flags.AddInt("train_steps", 30, "warm-up training steps per checkpoint");
  flags.AddInt("metrics_port", -1,
               "serve /metrics over HTTP during the run (-1 = off, "
               "0 = ephemeral, >0 = that port on loopback)");
  int exit_code = 0;
  if (!ParseOrExit(&flags, argc, argv, &exit_code)) return exit_code;

  obs::RunReport run_report("serve_qps");
  obs::JsonValue results = obs::JsonValue::MakeObject();

  for (const auto& name : DatasetList(flags, {"tiny"})) {
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
    const Architecture arch = MixedArch(p.data.num_pairs());

    // Two briefly-trained checkpoints of the same architecture: the swap
    // thread alternates between them under load.
    const std::string path_a = "bench_serve_qps_a.ckpt";
    const std::string path_b = "bench_serve_qps_b.ckpt";
    {
      FixedArchModel warm(p.data, arch, hp, "serve-warm");
      Batch b;
      b.data = &p.data;
      b.rows = p.splits.train.data();
      b.size = std::min<size_t>(hp.batch_size, p.splits.train.size());
      const int steps = flags.GetInt("train_steps");
      for (int i = 0; i < steps; ++i) warm.TrainStep(b);
      if (Status st = SaveModel(&warm, path_a); !st.ok()) {
        std::fprintf(stderr, "save: %s\n", st.ToString().c_str());
        return 1;
      }
      for (int i = 0; i < steps; ++i) warm.TrainStep(b);
      if (Status st = SaveModel(&warm, path_b); !st.ok()) {
        std::fprintf(stderr, "save: %s\n", st.ToString().c_str());
        return 1;
      }
    }
    auto factory = [&]() -> std::unique_ptr<CtrModel> {
      return std::make_unique<FixedArchModel>(p.data, arch, hp,
                                              "serve-live");
    };

    serve::ServeOptions sopts;
    sopts.max_batch = static_cast<size_t>(flags.GetInt("max_batch"));
    sopts.flush_deadline_us =
        static_cast<uint64_t>(flags.GetInt("deadline_us"));
    sopts.metrics_port = static_cast<int>(flags.GetInt("metrics_port"));
    serve::PredictServer server(p.data, sopts);
    if (server.metrics_port() >= 0) {
      std::printf("metrics exporter on http://127.0.0.1:%d/metrics\n",
                  server.metrics_port());
    }
    if (Status st = server.DeployCheckpoint(factory, path_a); !st.ok()) {
      std::fprintf(stderr, "deploy: %s\n", st.ToString().c_str());
      return 1;
    }

    // Pre-extract request templates so clients measure serving, not
    // dataset row decoding.
    const size_t n_rows = std::min<size_t>(512, p.splits.test.size());
    std::vector<serve::PredictRequest> requests;
    requests.reserve(n_rows);
    for (size_t k = 0; k < n_rows; ++k) {
      requests.push_back(serve::RequestFromRow(p.data, p.splits.test[k]));
    }

    obs::Histogram* latency = obs::MetricsRegistry::Global().GetHistogram(
        "serve.latency_us", {10, 20, 50, 100, 200, 500, 1000, 2000, 5000,
                             10000, 20000, 50000, 100000});
    latency->Reset();
    const ServeSnapshotStats before = ReadServeCounters();

    const double seconds = flags.GetDouble("seconds");
    const int n_clients =
        std::max(1, static_cast<int>(flags.GetInt("clients")));
    std::atomic<bool> stop{false};
    std::atomic<uint64_t> answered{0};
    // Half the clients use the micro-batcher, half the synchronous
    // batch-1 path, so both latency profiles land in the histogram.
    auto client = [&](int id) {
      const bool use_submit = id % 2 == 0;
      uint64_t local = 0;
      for (size_t i = static_cast<size_t>(id);
           !stop.load(std::memory_order_relaxed); ++i) {
        const serve::PredictRequest& req = requests[i % requests.size()];
        if (use_submit) {
          auto fut = server.Submit(req);
          if (fut.ok()) {
            fut->get();
            ++local;
          }
        } else {
          if (server.PredictNow(req).ok()) ++local;
        }
      }
      answered.fetch_add(local);
    };

    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> clients;
    for (int c = 0; c < n_clients; ++c) clients.emplace_back(client, c);
    const int swap_every_ms = flags.GetInt("swap_every_ms");
    uint64_t swap_failures = 0;
    int swaps = 0;
    // The harness thread doubles as the swapper.
    while (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
               .count() < seconds) {
      if (swap_every_ms > 0) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(swap_every_ms));
        Status st = server.DeployCheckpoint(
            factory, swaps % 2 == 0 ? path_b : path_a);
        if (st.ok()) {
          ++swaps;
        } else {
          ++swap_failures;
        }
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
    }
    stop.store(true);
    for (auto& t : clients) t.join();
    server.Drain();
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();

    const ServeSnapshotStats after = ReadServeCounters();
    const uint64_t served = after.requests - before.requests;
    const uint64_t flushes = after.flushes - before.flushes;
    const double qps = static_cast<double>(served) / elapsed;
    const double p50 = latency->Quantile(0.5);
    const double p99 = latency->Quantile(0.99);

    PrintHeader("Serving QPS: " + name);
    std::printf(
        "clients %d  %.1fs  served %llu  QPS %.0f  p50 %.0fus  p99 %.0fus  "
        "flushes %llu  swaps %d  rejected %llu\n",
        n_clients, elapsed, static_cast<unsigned long long>(served), qps,
        p50, p99, static_cast<unsigned long long>(flushes), swaps,
        static_cast<unsigned long long>(after.rejected - before.rejected));
    std::printf(
        "note: single-core containers serialize clients, flusher and "
        "kernels — treat QPS as a smoke number there\n");
    if (swap_failures > 0) {
      std::fprintf(stderr, "%llu hot-swaps FAILED\n",
                   static_cast<unsigned long long>(swap_failures));
      return 1;
    }

    obs::JsonValue row = obs::JsonValue::MakeObject();
    row.Set("clients", obs::JsonValue::Int(n_clients));
    row.Set("seconds", obs::JsonValue::Double(elapsed));
    row.Set("requests", obs::JsonValue::Uint(served));
    row.Set("qps", obs::JsonValue::Double(qps));
    row.Set("latency_p50_us", obs::JsonValue::Double(p50));
    row.Set("latency_p99_us", obs::JsonValue::Double(p99));
    row.Set("flushes", obs::JsonValue::Uint(flushes));
    row.Set("swaps", obs::JsonValue::Int(swaps));
    row.Set("rejected",
            obs::JsonValue::Uint(after.rejected - before.rejected));
    results.Set(name, std::move(row));
    std::remove(path_a.c_str());
    std::remove(path_b.c_str());
  }

  const std::string report_path = flags.GetString("report");
  if (!report_path.empty()) {
    run_report.AddSection("results", std::move(results));
    run_report.CaptureMetrics();
    run_report.CaptureSpans();
    std::string error;
    if (!run_report.WriteFile(report_path, &error)) {
      std::fprintf(stderr, "failed to write report %s: %s\n",
                   report_path.c_str(), error.c_str());
      return 1;
    }
    std::printf("\nrun report written to %s\n", report_path.c_str());
  }
  return 0;
}

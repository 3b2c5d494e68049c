// Quantized inference harness: trains a small FixedArchModel, publishes
// int8 and bf16 quantized snapshots via QuantizeSnapshot, and measures
// what quantization costs (AUC, with a paired significance test over
// disjoint test folds) and what it buys (embedding bytes/row, batch-1
// PredictNow throughput and tail latency against the fp32 model).
// Writes the rows as a JSON run report with --report=PATH so
// tools/bench_compare can gate regressions against BENCH_quantized.json.
//
// Assertions for CI (all off by default):
//   --assert_auc            fail when a quantized model's fold-wise AUC is
//                           significantly WORSE than fp32 (paired t-test,
//                           p < 0.05 and lower mean).
//   --assert_bytes_ratio=R  fail when fp32/int8 embedding bytes-per-row
//                           ratio falls below R (deterministic; layout).
//   --assert_speedup=S      fail when int8 batch-1 QPS / fp32 batch-1 QPS
//                           falls below S (machine-dependent; use only on
//                           hosts where the ratio is stable).
//
// NOTE: in a single-core container the caller, the flusher, and the
// kernel pool share one core, so absolute QPS is a smoke number — the
// int8-vs-fp32 RATIO is the figure of merit here (same binary, same
// host, same path; only the deployed snapshot differs).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "core/fixed_arch_model.h"
#include "metrics/metrics.h"
#include "metrics/significance.h"
#include "models/interaction.h"
#include "obs/registry.h"
#include "obs/run_report.h"
#include "serve/quantized_model.h"
#include "serve/request.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "tensor/dispatch.h"

using namespace optinter;
using namespace optinter::bench;

namespace {

// Mixed assignment so quantization covers memorized, factorized and naive
// pairs at once (same shape the serving tests use).
Architecture MixedArch(size_t num_pairs) {
  Architecture arch(num_pairs, InterMethod::kNaive);
  if (num_pairs > 0) arch[0] = InterMethod::kMemorize;
  if (num_pairs > 1) arch[1] = InterMethod::kFactorize;
  return arch;
}

// Batched Predict over `rows`; single-threaded caller, pooled context.
std::vector<float> EvalProbs(const CtrModel& model,
                             const EncodedDataset& data,
                             const std::vector<size_t>& rows,
                             ForwardContext* ctx) {
  std::vector<float> probs;
  probs.reserve(rows.size());
  std::vector<float> chunk_probs;
  constexpr size_t kChunk = 256;
  for (size_t at = 0; at < rows.size(); at += kChunk) {
    Batch b;
    b.data = &data;
    b.rows = rows.data() + at;
    b.size = std::min(kChunk, rows.size() - at);
    model.Predict(b, &chunk_probs, ctx);
    probs.insert(probs.end(), chunk_probs.begin(), chunk_probs.end());
  }
  return probs;
}

// Round-robin fold assignment keeps each fold's class mix close to the
// split's, so per-fold AUC is defined (needs both classes present).
// Returns per-fold AUCs for the folds where BOTH models' AUC is defined
// (same fold set for both, or the pairing would be meaningless).
void FoldAucs(const std::vector<float>& probs_a,
              const std::vector<float>& probs_b,
              const EncodedDataset& data, const std::vector<size_t>& rows,
              size_t n_folds, std::vector<double>* auc_a,
              std::vector<double>* auc_b) {
  auc_a->clear();
  auc_b->clear();
  for (size_t f = 0; f < n_folds; ++f) {
    std::vector<float> pa, pb, labels;
    size_t n_pos = 0;
    for (size_t k = f; k < rows.size(); k += n_folds) {
      pa.push_back(probs_a[k]);
      pb.push_back(probs_b[k]);
      const float y = data.label(rows[k]);
      labels.push_back(y);
      if (y > 0.5f) ++n_pos;
    }
    if (n_pos == 0 || n_pos == labels.size()) continue;  // AUC undefined
    auc_a->push_back(Auc(pa, labels));
    auc_b->push_back(Auc(pb, labels));
  }
}

struct ServeRun {
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

// Single-client PredictNow loop against whatever snapshot is deployed.
ServeRun DriveBatch1(serve::PredictServer* server,
                     const std::vector<serve::PredictRequest>& requests,
                     double seconds) {
  obs::Histogram* latency = obs::MetricsRegistry::Global().GetHistogram(
      "serve.latency_us", {10, 20, 50, 100, 200, 500, 1000, 2000, 5000,
                           10000, 20000, 50000, 100000});
  // Warm caches, the batch-1 slot pool, and the dispatch table.
  for (size_t i = 0; i < 200; ++i) {
    server->PredictNow(requests[i % requests.size()]);
  }
  latency->Reset();
  uint64_t calls = 0;
  const auto start = std::chrono::steady_clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  // Check the clock every 64 calls so timing overhead stays off the
  // measured path.
  while (elapsed() < seconds) {
    for (int k = 0; k < 64; ++k) {
      server->PredictNow(requests[calls % requests.size()]);
      ++calls;
    }
  }
  ServeRun run;
  run.qps = static_cast<double>(calls) / elapsed();
  run.p50_us = latency->Quantile(0.5);
  run.p99_us = latency->Quantile(0.99);
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  FlagParser flags;
  AddCommonFlags(&flags);
  flags.AddInt("train_steps", 300, "warm-up training steps");
  // The tiny profile's hyper-params are sized for test speed (dim 8/4,
  // MLP {16}); quantization is measured on a serving-realistic model
  // shape (criteo-like dims) unless overridden.
  flags.AddInt("embed_dim", 16, "feature embedding dim");
  flags.AddInt("cross_embed_dim", 16, "memorized-cross embedding dim");
  flags.AddString("mlp_hidden", "128,64", "comma-separated MLP widths");
  flags.AddInt("folds", 20, "disjoint test folds for the paired t-test");
  flags.AddDouble("per_model_seconds", 1.0,
                  "batch-1 load duration per deployed snapshot");
  flags.AddBool("assert_auc", false,
                "fail when a quantized AUC is significantly worse (p<0.05)");
  flags.AddDouble("assert_bytes_ratio", 0.0,
                  "fail when fp32/int8 bytes-per-row < this (0 = off)");
  flags.AddDouble("assert_speedup", 0.0,
                  "fail when int8/fp32 batch-1 QPS < this (0 = off)");
  int exit_code = 0;
  if (!ParseOrExit(&flags, argc, argv, &exit_code)) return exit_code;

  obs::RunReport run_report("quantized_serve");
  obs::JsonValue results = obs::JsonValue::MakeObject();
  bool failed = false;

  std::printf("kernel backend: %s\n", ActiveKernelBackend());

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
    hp.embed_dim = static_cast<size_t>(flags.GetInt("embed_dim"));
    hp.cross_embed_dim =
        static_cast<size_t>(flags.GetInt("cross_embed_dim"));
    hp.mlp_hidden.clear();
    for (const auto& part : Split(flags.GetString("mlp_hidden"), ',')) {
      const std::string w(Trim(part));
      if (!w.empty()) hp.mlp_hidden.push_back(std::stoul(w));
    }
    const Architecture arch = MixedArch(p.data.num_pairs());

    auto fp32 =
        std::make_shared<FixedArchModel>(p.data, arch, hp, "quant-fp32");
    {
      Batch b;
      b.data = &p.data;
      const int steps = flags.GetInt("train_steps");
      const size_t bs = std::min<size_t>(hp.batch_size,
                                         p.splits.train.size());
      for (int i = 0; i < steps; ++i) {
        const size_t at =
            (static_cast<size_t>(i) * bs) % p.splits.train.size();
        const size_t take =
            std::min(bs, p.splits.train.size() - at);
        b.rows = p.splits.train.data() + at;
        b.size = take;
        fp32->TrainStep(b);
      }
    }
    std::shared_ptr<const CtrModel> fp32_const = fp32;

    std::shared_ptr<const CtrModel> int8_model, bf16_model;
    if (Status st = serve::QuantizeSnapshot(fp32_const, QuantMode::kInt8,
                                            &int8_model);
        !st.ok()) {
      std::fprintf(stderr, "quantize int8: %s\n", st.ToString().c_str());
      return 1;
    }
    if (Status st = serve::QuantizeSnapshot(fp32_const, QuantMode::kBf16,
                                            &bf16_model);
        !st.ok()) {
      std::fprintf(stderr, "quantize bf16: %s\n", st.ToString().c_str());
      return 1;
    }
    const auto* q8 =
        dynamic_cast<const serve::QuantizedFixedArchModel*>(int8_model.get());
    const auto* q16 =
        dynamic_cast<const serve::QuantizedFixedArchModel*>(bf16_model.get());
    CHECK(q8 != nullptr && q16 != nullptr);

    // --- Accuracy: full-split AUC + fold-wise paired t-test. ---
    ForwardContext eval_ctx;
    const std::vector<float> probs_fp32 =
        EvalProbs(*fp32, p.data, p.splits.test, &eval_ctx);
    const std::vector<float> probs_int8 =
        EvalProbs(*int8_model, p.data, p.splits.test, &eval_ctx);
    const std::vector<float> probs_bf16 =
        EvalProbs(*bf16_model, p.data, p.splits.test, &eval_ctx);
    std::vector<float> labels;
    labels.reserve(p.splits.test.size());
    for (size_t row : p.splits.test) labels.push_back(p.data.label(row));
    const double auc_fp32 = Auc(probs_fp32, labels);
    const double auc_int8 = Auc(probs_int8, labels);
    const double auc_bf16 = Auc(probs_bf16, labels);

    const size_t n_folds = std::max<size_t>(2, flags.GetInt("folds"));
    std::vector<double> folds_fp32, folds_int8, folds_bf16, folds_ref;
    FoldAucs(probs_fp32, probs_int8, p.data, p.splits.test, n_folds,
             &folds_fp32, &folds_int8);
    FoldAucs(probs_fp32, probs_bf16, p.data, p.splits.test, n_folds,
             &folds_ref, &folds_bf16);
    const TTestResult t_int8 = PairedTTest(folds_fp32, folds_int8);
    const TTestResult t_bf16 = PairedTTest(folds_ref, folds_bf16);
    const bool int8_sig_worse = Mean(folds_int8) < Mean(folds_fp32) &&
                                t_int8.p_value < 0.05;
    const bool bf16_sig_worse = Mean(folds_bf16) < Mean(folds_ref) &&
                                t_bf16.p_value < 0.05;

    // --- Footprint: embedding bytes per row. ---
    const double rows_total = static_cast<double>(q8->EmbeddingRows());
    const double bpr_fp32 =
        static_cast<double>(q8->Fp32EmbeddingBytes()) / rows_total;
    const double bpr_int8 =
        static_cast<double>(q8->EmbeddingBytes()) / rows_total;
    const double bpr_bf16 =
        static_cast<double>(q16->EmbeddingBytes()) / rows_total;
    const double bytes_ratio = bpr_fp32 / bpr_int8;

    // --- Speed: batch-1 PredictNow, same server, snapshot hot-swapped. ---
    serve::ServeOptions sopts;
    serve::PredictServer server(p.data, sopts);
    const size_t n_req = std::min<size_t>(512, p.splits.test.size());
    std::vector<serve::PredictRequest> requests;
    requests.reserve(n_req);
    for (size_t k = 0; k < n_req; ++k) {
      requests.push_back(serve::RequestFromRow(p.data, p.splits.test[k]));
    }
    const double per_model_seconds = flags.GetDouble("per_model_seconds");
    CHECK_OK(server.Deploy(fp32_const));
    const ServeRun run_fp32 = DriveBatch1(&server, requests,
                                          per_model_seconds);
    CHECK_OK(server.Deploy(int8_model));
    const ServeRun run_int8 = DriveBatch1(&server, requests,
                                          per_model_seconds);
    CHECK_OK(server.Deploy(bf16_model));
    const ServeRun run_bf16 = DriveBatch1(&server, requests,
                                          per_model_seconds);
    const double speedup = run_int8.qps / run_fp32.qps;

    PrintHeader("Quantized serving: " + name);
    std::printf(
        "AUC       fp32 %.6f   int8 %.6f (Δ %+.6f, p=%.3f%s)   "
        "bf16 %.6f (Δ %+.6f, p=%.3f%s)\n",
        auc_fp32, auc_int8, auc_int8 - auc_fp32, t_int8.p_value,
        int8_sig_worse ? ", SIGNIFICANT LOSS" : "", auc_bf16,
        auc_bf16 - auc_fp32, t_bf16.p_value,
        bf16_sig_worse ? ", SIGNIFICANT LOSS" : "");
    std::printf(
        "bytes/row fp32 %.1f   int8 %.1f (%.2fx)   bf16 %.1f (%.2fx)\n",
        bpr_fp32, bpr_int8, bytes_ratio, bpr_bf16, bpr_fp32 / bpr_bf16);
    std::printf(
        "batch-1   fp32 %.0f qps (p99 %.0fus)   int8 %.0f qps "
        "(p99 %.0fus, %.2fx)   bf16 %.0f qps (p99 %.0fus)\n",
        run_fp32.qps, run_fp32.p99_us, run_int8.qps, run_int8.p99_us,
        speedup, run_bf16.qps, run_bf16.p99_us);
    std::printf(
        "note: single-core containers serialize everything — the ratio, "
        "not the absolute QPS, is the figure of merit\n");

    if (flags.GetBool("assert_auc") && (int8_sig_worse || bf16_sig_worse)) {
      std::fprintf(stderr,
                   "FAIL %s: quantized AUC significantly worse than fp32 "
                   "(int8 p=%.4f, bf16 p=%.4f)\n",
                   name.c_str(), t_int8.p_value, t_bf16.p_value);
      failed = true;
    }
    const double min_bytes_ratio = flags.GetDouble("assert_bytes_ratio");
    if (min_bytes_ratio > 0.0 && bytes_ratio < min_bytes_ratio) {
      std::fprintf(stderr, "FAIL %s: bytes ratio %.2fx < required %.2fx\n",
                   name.c_str(), bytes_ratio, min_bytes_ratio);
      failed = true;
    }
    const double min_speedup = flags.GetDouble("assert_speedup");
    if (min_speedup > 0.0 && speedup < min_speedup) {
      std::fprintf(stderr, "FAIL %s: int8 speedup %.2fx < required %.2fx\n",
                   name.c_str(), speedup, min_speedup);
      failed = true;
    }

    obs::JsonValue row = obs::JsonValue::MakeObject();
    row.Set("backend", obs::JsonValue::Str(ActiveKernelBackend()));
    row.Set("auc_fp32", obs::JsonValue::Double(auc_fp32));
    row.Set("auc_int8", obs::JsonValue::Double(auc_int8));
    row.Set("auc_bf16", obs::JsonValue::Double(auc_bf16));
    row.Set("auc_folds", obs::JsonValue::Uint(folds_fp32.size()));
    row.Set("p_value_int8", obs::JsonValue::Double(t_int8.p_value));
    row.Set("p_value_bf16", obs::JsonValue::Double(t_bf16.p_value));
    row.Set("bytes_per_row_fp32", obs::JsonValue::Double(bpr_fp32));
    row.Set("bytes_per_row_int8", obs::JsonValue::Double(bpr_int8));
    row.Set("bytes_per_row_bf16", obs::JsonValue::Double(bpr_bf16));
    row.Set("bytes_ratio_int8", obs::JsonValue::Double(bytes_ratio));
    row.Set("qps_fp32", obs::JsonValue::Double(run_fp32.qps));
    row.Set("qps_int8", obs::JsonValue::Double(run_int8.qps));
    row.Set("qps_bf16", obs::JsonValue::Double(run_bf16.qps));
    row.Set("latency_p99_us_fp32", obs::JsonValue::Double(run_fp32.p99_us));
    row.Set("latency_p99_us_int8", obs::JsonValue::Double(run_int8.p99_us));
    row.Set("speedup_int8", obs::JsonValue::Double(speedup));
    results.Set(name, std::move(row));
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
  return failed ? 1 : 0;
}

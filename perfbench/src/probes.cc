// Per-layer probes: each times calls into one layer's public functions
// from outside, on the shapes and data of the workload's own pipeline
// pass. They run after the pipeline, with the program's spans off.

#include <unistd.h>

#include <algorithm>
#include <cmath>

#include "bench.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/search_model.h"
#include "metrics/metrics.h"
#include "models/prepared_batch.h"
#include "nn/mlp.h"
#include "serve/quantized_model.h"
#include "serving.h"
#include "tensor/int8.h"
#include "tensor/kernels.h"
#include "train/pipeline_executor.h"

namespace perfbench {

using optinter::obs::JsonValue;

namespace {

double Us(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

/// Median wall time of `fn` in µs over `reps` calls after one warm-up.
template <typename Fn>
double MedianUs(int reps, Fn&& fn) {
  fn();
  Samples s;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    s.Add(Us(t0, Clock::now()));
  }
  return s.Median();
}

/// Median per-batch time of the three phases of one training step, with
/// batches coming from `source`. When `reader` is set, also the time each
/// Next() blocks and the largest resident-shard count seen.
struct PhaseTimes {
  Samples prepare, fwd_bwd, apply, next_wait;
  size_t resident_max = 0;
};

PhaseTimes TimePhases(optinter::CtrModel* model,
                      optinter::BatchSource* source, size_t steps,
                      const optinter::StreamingReader* reader) {
  constexpr size_t kWarmup = 3;
  PhaseTimes t;
  optinter::PreparedBatch prep;
  source->StartEpoch();
  for (size_t s = 0; s < steps + kWarmup; ++s) {
    const auto t0 = Clock::now();
    optinter::Batch b = source->Next();
    const auto t1 = Clock::now();
    if (b.size == 0) {
      source->StartEpoch();
      continue;
    }
    if (reader != nullptr) {
      t.resident_max = std::max(t.resident_max, reader->resident_shards());
    }
    model->PrepareBatch(b, &prep);
    const auto t2 = Clock::now();
    model->ForwardBackward(prep);
    const auto t3 = Clock::now();
    model->ApplyGrads();
    const auto t4 = Clock::now();
    if (s < kWarmup) continue;
    t.next_wait.Add(Us(t0, t1));
    t.prepare.Add(Us(t1, t2));
    t.fwd_bwd.Add(Us(t2, t3));
    t.apply.Add(Us(t3, t4));
  }
  return t;
}

/// Rows/s of `steps` pipelined training steps on a fresh model at the
/// current pool size.
double PipelinedRowsPerS(const PipelineState& st, size_t steps) {
  optinter::FixedArchModel model(*st.model_data, st.arch, st.hp, "probe");
  const size_t rows = std::min(st.data.num_rows, steps * st.hp.batch_size);
  optinter::Batcher batcher(&st.data, Range(0, rows), st.hp.batch_size,
                            st.hp.seed);
  optinter::PipelinedTrainExecutor exec(&model);
  batcher.StartEpoch();
  exec.RunEpoch(&batcher);  // warm-up epoch: buffers reach steady size
  batcher.StartEpoch();
  const auto t0 = Clock::now();
  const auto stats = exec.RunEpoch(&batcher);
  return static_cast<double>(stats.rows) / SecondsSince(t0);
}

void ProbeTrainingLayers(const WorkloadSpec& spec, PipelineState* st,
                         Ledger* layers) {
  const size_t kSteps = 30;
  // Search model phases (core SearchModel) on the in-RAM rows.
  {
    optinter::SearchModel search(st->data, st->hp);
    const size_t rows = std::min<size_t>(st->data.num_rows,
                                         (kSteps + 4) * st->hp.batch_size);
    optinter::Batcher batcher(&st->data, Range(0, rows), st->hp.batch_size,
                              st->hp.seed);
    PhaseTimes t = TimePhases(&search, &batcher, kSteps, nullptr);
    layers->Set("search.prepare_us", t.prepare.Median(), "us");
    layers->Set("search.fwd_bwd_us", t.fwd_bwd.Median(), "us");
    layers->Set("search.apply_us", t.apply.Median(), "us");
  }
  // Fixed-architecture phases, fed by the prefetching shard batcher so
  // the data layer's blocking and residency are measured on the way.
  {
    auto reader = optinter::StreamingReader::Open(
        st->shard_dir, {.max_resident_shards = spec.max_resident_shards});
    layers->Check(reader.ok(), "probe reader: " + reader.status().ToString());
    if (!reader.ok()) return;
    optinter::StreamingBatcher::Options bo;
    bo.batch_size = st->hp.batch_size;
    bo.order = optinter::StreamingBatcher::Order::kWindowShuffle;
    bo.seed = st->hp.seed;
    bo.prefetch_batches = 2;
    bo.window_blocks = kWindowBlocks;
    optinter::StreamingBatcher batcher(reader->get(), 0, st->train_end, bo);
    optinter::FixedArchModel model(*st->model_data, st->arch, st->hp,
                                   "probe");
    PhaseTimes t = TimePhases(&model, &batcher, kSteps, reader->get());
    layers->Check(batcher.status().ok(), "probe batcher status");
    layers->Set("train.prepare_us", t.prepare.Median(), "us");
    layers->Set("train.fwd_bwd_us", t.fwd_bwd.Median(), "us");
    layers->Set("train.apply_us", t.apply.Median(), "us");
    layers->Set("data.next_wait_us", t.next_wait.Median(), "us");
    layers->Set("data.resident_shards_max",
                static_cast<double>(t.resident_max), "count");
    const double serial_ms =
        (t.prepare.Median() + t.fwd_bwd.Median() + t.apply.Median()) / 1e3;
    layers->Set("train.overlap_ratio",
                st->train_step_ms > 0.0 ? serial_ms / st->train_step_ms : 0.0,
                "ratio");
  }
  // Thread scaling of the pipelined trainer (common pool).
  {
    const size_t nproc =
        static_cast<size_t>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
    const double one = PipelinedRowsPerS(*st, 40);
    optinter::ThreadPool::SetGlobalThreads(nproc);
    const double all = PipelinedRowsPerS(*st, 40);
    optinter::ThreadPool::SetGlobalThreads(1);
    layers->Set("train.thread_scaling", one > 0.0 ? all / one : 0.0, "ratio");
    JsonValue n = JsonValue::MakeObject();
    n.Set("rows_per_s_1_thread", JsonValue::Double(one));
    n.Set("rows_per_s_all_threads", JsonValue::Double(all));
    n.Set("threads", JsonValue::Uint(nproc));
    layers->Note("thread_scaling", std::move(n));
  }
}

/// MLP forward/backward at the workload's batch size and z width, against
/// a large GemmNN on the same host.
void ProbeKernels(PipelineState* st, Ledger* layers) {
  const optinter::Mlp& model_mlp = st->model->mlp();
  optinter::Rng rng(st->hp.seed);
  optinter::Mlp mlp("probe", model_mlp.in_dim(), model_mlp.config(), &rng);
  const size_t batch = st->hp.batch_size;
  optinter::Tensor x({batch, mlp.in_dim()});
  for (size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<float>(rng.Uniform()) - 0.5f;
  }
  optinter::Tensor y, dx;
  optinter::Tensor dy({batch, mlp.out_dim()});
  dy.Fill(1e-3f);
  double macs = 0.0;
  for (const optinter::Linear& l : mlp.linears()) {
    macs += static_cast<double>(batch * l.in_dim() * l.out_dim());
  }
  const double fwd_us = MedianUs(20, [&] { mlp.Forward(x, &y); });
  // Backward alone: each timed call follows an untimed Forward that fills
  // the activations it reads.
  Samples bwd;
  for (int r = 0; r <= 20; ++r) {
    mlp.Forward(x, &y);
    const auto t0 = Clock::now();
    mlp.Backward(dy, &dx);
    if (r > 0) bwd.Add(Us(t0, Clock::now()));  // r = 0 warms up
  }
  const double bwd_us = bwd.Median();
  const double fwd_gflops = 2.0 * macs / (fwd_us * 1e3);
  const double bwd_gflops = 4.0 * macs / (bwd_us * 1e3);
  layers->Set("nn.mlp_fwd_gflops", fwd_gflops, "GFLOP/s");
  layers->Set("nn.mlp_bwd_gflops", bwd_gflops, "GFLOP/s");

  const size_t n = 512;
  std::vector<float> a(n * n), b(n * n), c(n * n);
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<float>(rng.Uniform()) - 0.5f;
    b[i] = static_cast<float>(rng.Uniform()) - 0.5f;
  }
  const double peak_us = MedianUs(10, [&] {
    optinter::GemmNN(a.data(), b.data(), c.data(), n, n, n);
  });
  const double peak = 2.0 * n * n * n / (peak_us * 1e3);
  layers->Set("tensor.gemm_peak_gflops", peak, "GFLOP/s");
  layers->Set("tensor.mlp_frac_of_peak",
              (6.0 * macs / ((fwd_us + bwd_us) * 1e3)) / peak, "ratio");

  // The first Linear at m = 1, as batch-1 serving runs it.
  const optinter::Linear& first = model_mlp.linears().front();
  const size_t k = first.in_dim();
  const size_t out = first.out_dim();
  std::vector<float> row(k), c1(out);
  for (float& v : row) v = static_cast<float>(rng.Uniform());
  const double nt_us = MedianUs(200, [&] {
    optinter::GemmNT(row.data(), first.weight.value.data(), c1.data(), 1, k,
                     out);
  });
  layers->Set("tensor.gemm_nt_b1_gflops", 2.0 * k * out / (nt_us * 1e3),
              "GFLOP/s");
  std::vector<int8_t> qw(k * out);
  std::vector<float> w_scale(out);
  std::vector<int32_t> w_rowsum(out);
  optinter::QuantizeWeightsPerRow(first.weight.value.data(), out, k,
                                  qw.data(), w_scale.data(), w_rowsum.data());
  std::vector<uint8_t> qa(k);
  float a_scale = 0.0f;
  int32_t a_zp = 0;
  optinter::QuantizeActivationRows(row.data(), 1, k, qa.data(), &a_scale,
                                   &a_zp);
  const double i8_us = MedianUs(200, [&] {
    optinter::Int8GemmNT(qa.data(), &a_scale, &a_zp, qw.data(),
                         w_scale.data(), w_rowsum.data(), nullptr, c1.data(),
                         1, k, out);
  });
  layers->Set("tensor.int8_gemm_b1_gops", 2.0 * k * out / (i8_us * 1e3),
              "GOP/s");
}

void ProbeEvalAndData(const Args& args, const WorkloadSpec& spec,
                      PipelineState* st, Ledger* layers) {
  // const Predict on a 2048-row batch with a private context.
  optinter::ForwardContext ctx;
  std::vector<float> probs;
  optinter::Batch b;
  b.data = &st->request_data;
  b.rows = st->request_rows.data();
  b.size = st->request_rows.size();
  const optinter::CtrModel& model = *st->model;
  layers->Set("eval.predict_us",
              MedianUs(10, [&] { model.Predict(b, &probs, &ctx); }), "us");

  // AUC over a test-split-sized score vector.
  const size_t n_test = st->reader->num_rows() - st->val_end;
  optinter::Rng rng(args.seed);
  std::vector<float> scores(n_test), labels(n_test);
  for (size_t i = 0; i < n_test; ++i) {
    scores[i] = static_cast<float>(rng.Uniform());
    labels[i] = rng.Bernoulli(0.25) ? 1.0f : 0.0f;
  }
  labels[0] = 1.0f;
  labels[1] = 0.0f;
  layers->Set("metrics.auc_ms",
              MedianUs(5, [&] { (void)optinter::Auc(scores, labels); }) / 1e3,
              "ms");

  // StreamingReader::FillBatch of random train rows.
  auto reader = optinter::StreamingReader::Open(
      st->shard_dir, {.max_resident_shards = spec.max_resident_shards});
  layers->Check(reader.ok(), "probe reader: " + reader.status().ToString());
  if (!reader.ok()) return;
  const size_t batch = st->hp.batch_size;
  std::vector<size_t> rows(batch);
  optinter::EncodedDataset buf;
  Samples fill;
  for (int r = 0; r < 50; ++r) {
    for (size_t& row : rows) row = rng.UniformInt(st->train_end);
    const auto t0 = Clock::now();
    const bool ok = (*reader)->FillBatch(rows.data(), batch, &buf).ok();
    fill.Add(Us(t0, Clock::now()));
    layers->Check(ok, "probe FillBatch");
  }
  const optinter::EncodedDataset& meta = (*reader)->meta();
  const double row_bytes =
      4.0 * static_cast<double>(meta.num_categorical() + meta.num_pairs() +
                                meta.num_continuous() + 1);
  layers->Set("data.fill_batch_us", fill.Median(), "us");
  layers->Set("data.fill_mb_per_s",
              row_bytes * static_cast<double>(batch) / fill.Median(), "MB/s");

  const auto& cat = st->encode_stats.cat_hash;
  const auto& cross = st->encode_stats.cross_hash;
  const double hashed = static_cast<double>(cat.hashed_rows + cat.hot_rows +
                                            cross.hashed_rows +
                                            cross.hot_rows);
  const double collided =
      static_cast<double>(cat.collision_rows + cross.collision_rows);
  layers->Set("data.hash_collision_frac",
              hashed > 0.0 ? collided / hashed : 0.0, "ratio");
  layers->Set("model.param_mb",
              static_cast<double>(st->model->ParamCount()) * 4.0 / 1048576.0,
              "MB");
}

void ProbeServing(PipelineState* st, Ledger* layers) {
  ServeHarness& h = *st->serve;
  auto direct = [&](const optinter::CtrModel& model, size_t batch) {
    optinter::ForwardContext ctx;
    std::vector<float> probs;
    size_t next = 0;
    return MedianUs(batch == 1 ? 2000 : 200, [&] {
      optinter::Batch b;
      b.data = &st->request_data;
      b.rows = st->request_rows.data() + next;
      b.size = batch;
      next = (next + batch) % (st->request_rows.size() - batch);
      model.Predict(b, &probs, &ctx);
    });
  };
  const double fp32_us = direct(*h.gen_a(), 1);
  const double int8_us = direct(*h.int8(), 1);
  layers->Set("serve.direct_us.fp32", fp32_us, "us");
  layers->Set("serve.direct_us.int8", int8_us, "us");
  layers->Set("serve.overhead_us.fp32", st->predict_now_p50_us_fp32 - fp32_us,
              "us");
  layers->Set("serve.overhead_us.int8", st->predict_now_p50_us_int8 - int8_us,
              "us");
  layers->Set("serve.batch_predict_us.b8", direct(*h.gen_a(), 8), "us");
  layers->Set("serve.batch_predict_us.b64", direct(*h.gen_a(), 64), "us");

  for (const double rate : {2000.0, 8000.0, 32000.0}) {
    OpenLoopResult r = h.OpenLoop(rate, 1.0, layers);
    const std::string k = std::to_string(static_cast<int>(rate));
    const double answered = static_cast<double>(r.sent - r.rejected);
    layers->Set("serve.flush_batch_mean.r" + k,
                r.flushes > 0 ? answered / static_cast<double>(r.flushes)
                              : 0.0,
                "count");
    layers->Set("serve.submit_p99_us.r" + k,
                std::isfinite(r.p99_with_misses_us) ? r.p99_with_misses_us
                                                    : 0.0,
                "us");
  }
  layers->Set("serve.swap_ms_p50", h.swap_ms.Median(), "ms");
  layers->Set("serve.swap_ms_max", h.swap_ms.Percentile(100.0), "ms");
  layers->Set("io.load_ms", h.load_ms, "ms");
  layers->Set("io.save_ms", h.save_ms, "ms");
  layers->Set("serve.quantize_ms", h.quantize_ms, "ms");
  const auto* q =
      dynamic_cast<const optinter::serve::QuantizedFixedArchModel*>(
          h.int8().get());
  layers->Set("serve.embedding_bytes.fp32",
              q ? static_cast<double>(q->Fp32EmbeddingBytes()) : 0.0,
              "bytes");
  layers->Set("serve.embedding_bytes.int8",
              q ? static_cast<double>(q->EmbeddingBytes()) : 0.0, "bytes");
  for (const Metric& m : st->serving_layers) {
    layers->Set(m.name, m.value, m.unit);
  }
}

}  // namespace

void RunProbes(const Args& args, const WorkloadSpec& spec,
               PipelineState* state, Ledger* layers) {
  if (state->model == nullptr || state->serve == nullptr) {
    layers->Check(false, "pipeline did not finish; no probes");
    return;
  }
  ProbeTrainingLayers(spec, state, layers);
  ProbeKernels(state, layers);
  ProbeEvalAndData(args, spec, state, layers);
  ProbeServing(state, layers);
}

}  // namespace perfbench

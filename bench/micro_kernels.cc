// Micro-benchmarks for the hot numeric kernels underlying every
// experiment: GEMM variants, elementwise/reduction kernels, embedding
// gather/scatter + sparse Adam, Hadamard interaction blocks,
// Gumbel-softmax sampling, and AUC.
//
// Every FLOP-bound benchmark reports GFLOP/s ("FLOPS" counter) and every
// kernel reports memory traffic as GB/s ("BYTES" counter), so the perf
// trajectory of the kernel layer is recorded run over run. A custom main
// accepts --report=PATH (the same flag as the table/figure harnesses) and
// writes google-benchmark's JSON there — CI emits BENCH_kernels.json from
// it.

#include <benchmark/benchmark.h>

#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/interaction_layout.h"
#include "metrics/metrics.h"
#include "models/cross_embedding.h"
#include "models/prepared_batch.h"
#include "nn/embedding.h"
#include "nn/layers.h"
#include "nn/optimizer.h"
#include "nn/param.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "synth/prepare.h"
#include "tensor/cpu_features.h"
#include "tensor/dispatch.h"
#include "tensor/kernels.h"

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif

namespace optinter {
namespace {

// FLOPS/BYTES rate counters: google-benchmark divides by wall time and
// prints with G/M suffixes, so these read directly as GFLOP/s and GB/s.
void SetRateCounters(benchmark::State& state, double flops_per_iter,
                     double bytes_per_iter) {
  if (flops_per_iter > 0) {
    state.counters["FLOPS"] = benchmark::Counter(
        flops_per_iter * static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate, benchmark::Counter::OneK::kIs1000);
  }
  state.counters["BYTES"] = benchmark::Counter(
      bytes_per_iter * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::OneK::kIs1000);
}

void SetGemmCounters(benchmark::State& state, size_t m, size_t k, size_t n) {
  const double flops = 2.0 * static_cast<double>(m * k * n);
  const double bytes =
      4.0 * static_cast<double>(m * k + k * n + 2 * m * n);
  SetRateCounters(state, flops, bytes);
}

void BM_GemmNN(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  const size_t k = 256;
  const size_t n = 64;
  std::vector<float> a(m * k, 0.5f), b(k * n, 0.25f), c(m * n);
  for (auto _ : state) {
    GemmNN(a.data(), b.data(), c.data(), m, k, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(m * k * n));
  SetGemmCounters(state, m, k, n);
}
BENCHMARK(BM_GemmNN)->Arg(64)->Arg(256)->Arg(1024);

void BM_GemmNT(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  const size_t k = 256;
  const size_t n = 64;
  std::vector<float> a(m * k, 0.5f), b(n * k, 0.25f), c(m * n);
  for (auto _ : state) {
    GemmNT(a.data(), b.data(), c.data(), m, k, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(m * k * n));
  SetGemmCounters(state, m, k, n);
}
BENCHMARK(BM_GemmNT)->Arg(64)->Arg(256)->Arg(1024);

void BM_GemmTN(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  const size_t k = 256;
  const size_t n = 64;
  std::vector<float> a(m * k, 0.5f), b(m * n, 0.25f), c(k * n);
  for (auto _ : state) {
    GemmTN(a.data(), b.data(), c.data(), m, k, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(m * k * n));
  SetGemmCounters(state, m, k, n);
}
BENCHMARK(BM_GemmTN)->Arg(64)->Arg(512)->Arg(2048);

// The three MLP GEMMs of one Linear layer at the criteo_like first-layer
// shapes: batch 512, input width range(0) (688 for the retrain model,
// 1520 for the search supernet), 128 outputs. Each runs in the
// orientation Linear uses: NT forward (y = x·Wᵀ), NN input gradient
// (dx = dy·W), TN weight gradient accumulated into dW (beta = 1). Rates
// use wall time, so they cover every pool thread the GEMM fans out to.
constexpr size_t kMlpBatch = 512;
constexpr size_t kMlpOut = 128;

std::vector<float> BenchValues(size_t count) {
  std::vector<float> v(count);
  for (size_t i = 0; i < count; ++i) {
    v[i] = static_cast<float>(static_cast<int>(i % 37) - 18) / 32.0f;
  }
  return v;
}

void BM_GemmMlpNT(benchmark::State& state) {
  const size_t in = static_cast<size_t>(state.range(0));
  const std::vector<float> x = BenchValues(kMlpBatch * in);
  const std::vector<float> w = BenchValues(kMlpOut * in);
  std::vector<float> y(kMlpBatch * kMlpOut);
  for (auto _ : state) {
    GemmNT(x.data(), w.data(), y.data(), kMlpBatch, in, kMlpOut);
    benchmark::DoNotOptimize(y.data());
  }
  SetGemmCounters(state, kMlpBatch, in, kMlpOut);
}
BENCHMARK(BM_GemmMlpNT)->Arg(688)->Arg(1520)->UseRealTime();

void BM_GemmMlpNN(benchmark::State& state) {
  const size_t in = static_cast<size_t>(state.range(0));
  const std::vector<float> dy = BenchValues(kMlpBatch * kMlpOut);
  const std::vector<float> w = BenchValues(kMlpOut * in);
  std::vector<float> dx(kMlpBatch * in);
  for (auto _ : state) {
    GemmNN(dy.data(), w.data(), dx.data(), kMlpBatch, kMlpOut, in);
    benchmark::DoNotOptimize(dx.data());
  }
  SetGemmCounters(state, kMlpBatch, kMlpOut, in);
}
BENCHMARK(BM_GemmMlpNN)->Arg(688)->Arg(1520)->UseRealTime();

void BM_GemmMlpTN(benchmark::State& state) {
  const size_t in = static_cast<size_t>(state.range(0));
  const std::vector<float> dy = BenchValues(kMlpBatch * kMlpOut);
  const std::vector<float> x = BenchValues(kMlpBatch * in);
  std::vector<float> dw(kMlpOut * in);
  for (auto _ : state) {
    GemmTN(dy.data(), x.data(), dw.data(), kMlpBatch, kMlpOut, in, 1.0f,
           1.0f);
    benchmark::DoNotOptimize(dw.data());
  }
  SetGemmCounters(state, kMlpBatch, kMlpOut, in);
}
BENCHMARK(BM_GemmMlpTN)->Arg(688)->Arg(1520)->UseRealTime();

// Register-only FMA throughput of one core for the active kernel backend:
// independent accumulator chains (more than FMA latency × issue width),
// no loads or stores in the loop. This, not the repo's own GEMM, is the
// peak a "fraction of peak" figure should divide by.
#if defined(__x86_64__) && defined(__GNUC__)
constexpr int kFmaChains = 12;

__attribute__((target("avx2,fma"))) float FmaLoopAvx2(size_t iters) {
  __m256 acc[kFmaChains];
  for (int c = 0; c < kFmaChains; ++c) acc[c] = _mm256_set1_ps(0.001f * c);
  const __m256 mul = _mm256_set1_ps(0.999999f);
  const __m256 add = _mm256_set1_ps(1e-7f);
  for (size_t i = 0; i < iters; ++i) {
    for (int c = 0; c < kFmaChains; ++c) {
      acc[c] = _mm256_fmadd_ps(acc[c], mul, add);
    }
  }
  __m256 sum = acc[0];
  for (int c = 1; c < kFmaChains; ++c) sum = _mm256_add_ps(sum, acc[c]);
  return _mm256_cvtss_f32(sum);
}

__attribute__((target("avx512f"))) float FmaLoopAvx512(size_t iters) {
  __m512 acc[kFmaChains];
  for (int c = 0; c < kFmaChains; ++c) acc[c] = _mm512_set1_ps(0.001f * c);
  const __m512 mul = _mm512_set1_ps(0.999999f);
  const __m512 add = _mm512_set1_ps(1e-7f);
  for (size_t i = 0; i < iters; ++i) {
    for (int c = 0; c < kFmaChains; ++c) {
      acc[c] = _mm512_fmadd_ps(acc[c], mul, add);
    }
  }
  __m512 sum = acc[0];
  for (int c = 1; c < kFmaChains; ++c) sum = _mm512_add_ps(sum, acc[c]);
  return _mm512_cvtss_f32(sum);
}
#endif

void BM_FmaPeak(benchmark::State& state) {
  const std::string backend = ActiveKernelBackend();
  const CpuFeatures& cpu = GetCpuFeatures();
  size_t iters = size_t{1} << 16;
  int lanes = 0;
#if defined(__x86_64__) && defined(__GNUC__)
  if (backend == "avx512" && cpu.avx512f) lanes = 16;
  if (backend == "avx2-fma" && cpu.avx2 && cpu.fma) lanes = 8;
#endif
  if (lanes == 0) {
    state.SkipWithError("active backend has no FMA loop on this CPU");
    return;
  }
  for (auto _ : state) {
    // Opaque trip count: keeps the pure loop from being hoisted out.
    benchmark::DoNotOptimize(iters);
#if defined(__x86_64__) && defined(__GNUC__)
    float r = lanes == 16 ? FmaLoopAvx512(iters) : FmaLoopAvx2(iters);
    benchmark::DoNotOptimize(r);
#endif
  }
  state.SetLabel(backend);
  SetRateCounters(state, 2.0 * lanes * kFmaChains * static_cast<double>(iters),
                  0.0);
}
BENCHMARK(BM_FmaPeak);

void BM_Dot(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<float> x(n, 0.5f), y(n, 0.25f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Dot(n, x.data(), y.data()));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
  SetRateCounters(state, 2.0 * static_cast<double>(n),
                  8.0 * static_cast<double>(n));
}
BENCHMARK(BM_Dot)->Arg(64)->Arg(4096);

void BM_Axpy(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<float> x(n, 0.5f), y(n, 0.25f);
  for (auto _ : state) {
    Axpy(n, 0.001f, x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
  SetRateCounters(state, 2.0 * static_cast<double>(n),
                  12.0 * static_cast<double>(n));
}
BENCHMARK(BM_Axpy)->Arg(64)->Arg(4096);

void BM_SigmoidForward(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<float> z(n), out(n);
  for (size_t i = 0; i < n; ++i) {
    z[i] = static_cast<float>(i % 17) - 8.0f;
  }
  for (auto _ : state) {
    SigmoidForward(z.data(), n, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
  SetRateCounters(state, 0.0, 8.0 * static_cast<double>(n));
}
BENCHMARK(BM_SigmoidForward)->Arg(4096);

void BM_ReluForward(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Relu relu;
  ReluWorkspace ws;
  Tensor x({n}), y;
  for (size_t i = 0; i < n; ++i) {
    x[i] = static_cast<float>(i % 7) - 3.0f;
  }
  for (auto _ : state) {
    relu.Forward(x, &y, &ws);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
  SetRateCounters(state, 0.0, 12.0 * static_cast<double>(n));
}
BENCHMARK(BM_ReluForward)->Arg(16384);

void BM_DenseAdamStep(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  DenseParam p;
  p.name = "bench";
  p.Resize({n});
  p.lr = 1e-3f;
  p.l2 = 1e-6f;
  // Every gradient is nonzero so the moment state is stationary: with a
  // zero gradient, v decays by b2 every step and drifts into subnormal
  // range, where each sqrt/div takes a microcode assist — throughput then
  // degrades with iteration count and runs with different auto-chosen
  // iteration budgets are not comparable.
  for (size_t i = 0; i < n; ++i) {
    p.value[i] = static_cast<float>(i % 13) * 0.01f;
    p.grad[i] = static_cast<float>(i % 7 + 1) * 0.001f;
  }
  Adam adam{AdamConfig{}};
  adam.AddParam(&p);
  for (auto _ : state) {
    adam.Step();
    benchmark::DoNotOptimize(p.value.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
  // ~12 flops/elem (2 fma + bias-correct divide + sqrt + update), touches
  // w, g, m, v (reads) and w, m, v (writes).
  SetRateCounters(state, 12.0 * static_cast<double>(n),
                  28.0 * static_cast<double>(n));
}
BENCHMARK(BM_DenseAdamStep)->Arg(65536);

void BM_EmbeddingGather(benchmark::State& state) {
  const size_t vocab = 100000;
  const size_t dim = 16;
  const size_t batch = static_cast<size_t>(state.range(0));
  Rng rng(1);
  EmbeddingTable table("bench", vocab, dim, 1e-3f, 0.0f);
  table.Init(&rng);
  std::vector<int32_t> ids(batch);
  for (auto& id : ids) {
    id = static_cast<int32_t>(rng.UniformInt(vocab));
  }
  std::vector<float> out(batch * dim);
  for (auto _ : state) {
    for (size_t k = 0; k < batch; ++k) {
      const float* row = table.Row(ids[k]);
      std::copy(row, row + dim, out.data() + k * dim);
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(batch));
  SetRateCounters(state, 0.0, 8.0 * static_cast<double>(batch * dim));
}
BENCHMARK(BM_EmbeddingGather)->Arg(512)->Arg(4096);

// One training step's sparse update of a table, as the embedding layers
// run it: id dedup (PrepareTableIds), the slot scatter, then sparse Adam.
void BM_SparseAdamStep(benchmark::State& state) {
  const size_t vocab = 100000;
  const size_t dim = 16;
  const size_t batch = static_cast<size_t>(state.range(0));
  Rng rng(1);
  EmbeddingTable table("bench", vocab, dim, 1e-3f, 1e-6f);
  table.Init(&rng);
  Tensor grad({batch, dim});
  grad.Fill(0.01f);
  std::vector<int32_t> ids(batch);
  IdDedupScratch dedup;
  PreparedTable pt;
  for (auto _ : state) {
    for (auto& id : ids) id = static_cast<int32_t>(rng.UniformInt(vocab));
    PrepareTableIds(table, batch, [&](size_t k) { return ids[k]; }, &dedup,
                    &pt);
    table.BeginPreparedScatter(pt.unique_rows.data(), pt.unique_rows.size());
    for (size_t shard = 0; shard < EmbeddingTable::kGradShards; ++shard) {
      ScatterPreparedBucket(pt, shard, grad, 0, &table);
    }
    table.SparseAdamStepPrepared();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(batch));
  SetRateCounters(state, 12.0 * static_cast<double>(batch * dim),
                  28.0 * static_cast<double>(batch * dim));
}
BENCHMARK(BM_SparseAdamStep)->Arg(512)->Arg(4096);

void BM_HadamardBlock(benchmark::State& state) {
  const size_t pairs = 78;
  const size_t dim = 16;
  std::vector<float> e(17 * dim, 0.3f), out(pairs * dim);
  for (auto _ : state) {
    size_t p = 0;
    for (size_t i = 0; i < 13; ++i) {
      for (size_t j = i + 1; j < 13; ++j, ++p) {
        Hadamard(dim, e.data() + i * dim, e.data() + j * dim,
                 out.data() + p * dim);
      }
    }
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(pairs * dim));
  SetRateCounters(state, static_cast<double>(pairs * dim),
                  12.0 * static_cast<double>(pairs * dim));
}
BENCHMARK(BM_HadamardBlock);

// The search step's non-GEMM layers at the two workload shapes: every
// pair a weighted {memorize, Hadamard} block (Eq. 18), b = 512 rows.
// criteo_like: 13 categorical + 4 continuous fields (78 pairs), s1 16,
// s2 8; avazu_like: 12 categorical fields (66 pairs), s1 16, s2 4.
struct SearchShape {
  const char* profile;
  size_t cat_fields;
  size_t cont_fields;
  size_t s1;
  size_t s2;
};
constexpr SearchShape kCriteoLike{"criteo_like", 13, 4, 16, 8};
constexpr SearchShape kAvazuLike{"avazu_like", 12, 0, 16, 4};
constexpr size_t kSearchBatch = 512;

struct SearchWalk {
  InteractionLayout layout;
  Tensor emb, cross, triple, weights, dz;

  explicit SearchWalk(const SearchShape& shape)
      : layout(std::vector<std::vector<InteractionLayout::Arm>>(
                   shape.cat_fields * (shape.cat_fields - 1) / 2,
                   {{InterMethod::kMemorize},
                    {InterMethod::kFactorize, FactorizeFn::kHadamard}}),
               shape.cat_fields,
               (shape.cat_fields + shape.cont_fields) * shape.s1, shape.s1,
               shape.s2, /*num_triples=*/0) {
    Rng rng(1);
    emb = RandomTensor({kSearchBatch, layout.emb_cols}, &rng);
    cross = RandomTensor({kSearchBatch, layout.pair_slots * shape.s2}, &rng);
    triple.Resize({kSearchBatch, 0});
    weights = RandomTensor({layout.num_pairs, layout.weight_stride}, &rng);
    dz = RandomTensor({kSearchBatch, layout.z_cols()}, &rng);
  }
  GatheredRows rows() const { return {emb, cross, triple, layout.s2}; }

  static Tensor RandomTensor(std::vector<size_t> shape, Rng* rng) {
    Tensor t(shape);
    for (size_t i = 0; i < t.size(); ++i) {
      t.data()[i] = static_cast<float>(rng->Uniform(-1.0, 1.0));
    }
    return t;
  }
};

void BM_AssembleRowsSearch(benchmark::State& state, SearchShape shape) {
  const SearchWalk walk(shape);
  Tensor z;
  for (auto _ : state) {
    AssembleRows(walk.layout, walk.rows(), kSearchBatch, &z,
                 walk.weights.data());
    benchmark::DoNotOptimize(z.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kSearchBatch));
  SetRateCounters(state, 0.0,
                  4.0 * static_cast<double>(kSearchBatch *
                                            (walk.layout.z_cols() +
                                             walk.cross.cols())));
}
BENCHMARK_CAPTURE(BM_AssembleRowsSearch, criteo_like, kCriteoLike);
BENCHMARK_CAPTURE(BM_AssembleRowsSearch, avazu_like, kAvazuLike);

void BM_AssembleRowsBackwardSearch(benchmark::State& state,
                                   SearchShape shape) {
  const SearchWalk walk(shape);
  InteractionGrads grads;
  for (auto _ : state) {
    AssembleRowsBackward(walk.layout, walk.rows(), walk.weights.data(),
                         walk.dz, &grads);
    benchmark::DoNotOptimize(grads.dp.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kSearchBatch));
  SetRateCounters(state, 0.0,
                  4.0 * static_cast<double>(kSearchBatch *
                                            (walk.layout.z_cols() +
                                             2 * walk.cross.cols() +
                                             2 * walk.emb.cols())));
}
BENCHMARK_CAPTURE(BM_AssembleRowsBackwardSearch, criteo_like, kCriteoLike);
BENCHMARK_CAPTURE(BM_AssembleRowsBackwardSearch, avazu_like, kAvazuLike);

// The search step's cross_gather: every pair's memorized rows for a
// prepared batch of 512 rows of the profile (scaled to 20% of its rows).
void BM_CrossGather(benchmark::State& state, SearchShape shape) {
  PrepareOptions opts;
  opts.rows_scale = 0.2;
  auto prepared = PrepareProfile(shape.profile, opts);
  if (!prepared.ok()) {
    state.SkipWithError(prepared.status().ToString().c_str());
    return;
  }
  const EncodedDataset& data = prepared->data;
  std::vector<size_t> pairs(data.num_pairs());
  for (size_t p = 0; p < pairs.size(); ++p) pairs[p] = p;
  Rng rng(1);
  CrossEmbedding layer(data, CrossKind::kPair, pairs, shape.s2, 1e-3f, 0.0f,
                       &rng);
  Batch batch;
  batch.data = &data;
  batch.rows = prepared->splits.train.data();
  batch.size = std::min(kSearchBatch, prepared->splits.train.size());
  IdDedupScratch dedup;
  std::vector<PreparedTable> tables;
  layer.Prepare(batch, &dedup, &tables);
  Tensor out;
  for (auto _ : state) {
    layer.ForwardPrepared(tables, batch.size, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch.size));
  SetRateCounters(state, 0.0,
                  8.0 * static_cast<double>(batch.size * layer.output_dim()));
}
BENCHMARK_CAPTURE(BM_CrossGather, criteo_like, kCriteoLike);
BENCHMARK_CAPTURE(BM_CrossGather, avazu_like, kAvazuLike);

void BM_GumbelSoftmaxSample(benchmark::State& state) {
  const size_t pairs = static_cast<size_t>(state.range(0));
  Rng rng(1);
  std::vector<float> alpha(pairs * 3, 0.1f), probs(pairs * 3);
  const float tau = 0.5f;
  for (auto _ : state) {
    float noisy[3];
    for (size_t p = 0; p < pairs; ++p) {
      for (int k = 0; k < 3; ++k) {
        noisy[k] = (alpha[p * 3 + k] + static_cast<float>(rng.Gumbel())) /
                   tau;
      }
      Softmax(3, noisy, probs.data() + p * 3);
    }
    benchmark::DoNotOptimize(probs.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(pairs));
}
BENCHMARK(BM_GumbelSoftmaxSample)->Arg(78)->Arg(325);

void BM_Auc(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(1);
  std::vector<float> scores(n), labels(n);
  for (size_t i = 0; i < n; ++i) {
    scores[i] = static_cast<float>(rng.Uniform());
    labels[i] = rng.Bernoulli(0.2) ? 1.0f : 0.0f;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Auc(scores, labels));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_Auc)->Arg(10000)->Arg(100000);

// -- Observability overhead --------------------------------------------------
// The per-call cost of the instrumentation primitives themselves, with the
// runtime switch on and off. "Off" should be a branch on one relaxed
// atomic load (the ≈0-overhead kill switch); "on" bounds what a span adds
// to an instrumented kernel (two clock reads + two relaxed adds).

void BM_TraceSpan(benchmark::State& state) {
  obs::SetEnabled(state.range(0) != 0);
  for (auto _ : state) {
    OPTINTER_TRACE_SPAN("bench_overhead");
    benchmark::ClobberMemory();
  }
  obs::SetEnabled(true);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceSpan)->Arg(0)->Arg(1);

void BM_CounterAdd(benchmark::State& state) {
  obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("bench.counter_overhead");
  for (auto _ : state) {
    c->Add(1);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterAdd);

void BM_HistogramObserve(benchmark::State& state) {
  obs::Histogram* h = obs::MetricsRegistry::Global().GetHistogram(
      "bench.histogram_overhead", {1.0, 10.0, 100.0, 1000.0});
  double v = 0.0;
  for (auto _ : state) {
    h->Observe(v);
    v = v < 2000.0 ? v + 1.0 : 0.0;
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramObserve);

}  // namespace
}  // namespace optinter

// Custom main instead of benchmark_main: accepts the repo-wide
// --report=PATH flag and mirrors the run as google-benchmark JSON there
// (console output is unchanged). CI uses it to emit BENCH_kernels.json.
// --report is rewritten into the native --benchmark_out flags so the
// library's own file-reporter plumbing does the work.
int main(int argc, char** argv) {
  std::string report_path;
  std::vector<std::string> arg_strings;
  arg_strings.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--report=", 9) == 0) {
      report_path = argv[i] + 9;
    } else {
      arg_strings.push_back(argv[i]);
    }
  }
  if (!report_path.empty()) {
    arg_strings.push_back("--benchmark_out=" + report_path);
    arg_strings.push_back("--benchmark_out_format=json");
  }
  std::vector<char*> args;
  for (std::string& s : arg_strings) args.push_back(s.data());
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  if (!report_path.empty()) {
    std::printf("\nrun report written to %s\n", report_path.c_str());
  }
  benchmark::Shutdown();
  return 0;
}

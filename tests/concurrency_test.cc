// Concurrency and determinism tests for the parallel train/eval paths.
//
// Three families:
//  - concurrent re-entrant Predict on distinct batches (also the targeted
//    TSan workload: run under -fsanitize=thread in CI),
//  - bit-identical results across global thread counts (1, 2, 8) for the
//    chunked backward paths, the embedding scatter, full TrainModel runs
//    and the search stage — the determinism contract of DESIGN.md,
//  - finite-difference gradient checks of the parallel backward paths via
//    CheckGradientAcrossThreadCounts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/fixed_arch_model.h"
#include "core/interaction_layout.h"
#include "core/pipeline.h"
#include "core/search_model.h"
#include "gradient_check.h"
#include "metrics/metrics.h"
#include "models/feature_embedding.h"
#include "models/forward_context.h"
#include "nn/layers.h"

#include <filesystem>

#include "data/shard_format.h"
#include "data/stream_encode.h"
#include "data/stream_reader.h"
#include "nn/optimizer.h"
#include "synth/stream_source.h"
#include "tensor/kernels.h"
#include "test_data.h"
#include "train/pipeline_executor.h"
#include "train/stream_trainer.h"
#include "train/trainer.h"

namespace optinter {
namespace {

using testing::CheckGradientAcrossThreadCounts;
using testing::HeadBatch;
using testing::PoolGuard;
using testing::SharedTinyData;

HyperParams TinyHp() {
  HyperParams hp = DefaultHyperParams("tiny");
  hp.seed = 77;
  return hp;
}

// SearchModel candidate sets under test: the paper's {hp.factorize_fn}
// (empty) and the multi-operation {Hadamard, inner product}.
std::vector<std::vector<FactorizeFn>> SearchCandidateSets() {
  return {{}, {FactorizeFn::kHadamard, FactorizeFn::kInnerProduct}};
}

double WeightedSum(const Tensor& y, const Tensor& c) {
  double s = 0.0;
  for (size_t i = 0; i < y.size(); ++i) {
    s += static_cast<double>(y[i]) * c[i];
  }
  return s;
}

Tensor RandomTensor(std::vector<size_t> shape, Rng* rng, double scale = 1.0) {
  Tensor t(std::move(shape));
  for (size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng->Uniform(-scale, scale));
  }
  return t;
}

// A mixed architecture covering all three interaction methods.
Architecture MixedArch(size_t num_pairs) {
  Architecture arch(num_pairs, InterMethod::kNaive);
  arch[0] = InterMethod::kMemorize;
  arch[1] = InterMethod::kFactorize;
  arch[4] = InterMethod::kMemorize;
  arch[7] = InterMethod::kFactorize;
  return arch;
}

// Disjoint consecutive batches over the training split.
std::vector<Batch> SplitBatches(const testing::PreparedData& p,
                                size_t num_batches, size_t batch_size) {
  std::vector<Batch> batches;
  for (size_t i = 0; i < num_batches; ++i) {
    Batch b;
    b.data = &p.data;
    b.rows = p.splits.train.data() + i * batch_size;
    b.size = batch_size;
    CHECK_LE((i + 1) * batch_size, p.splits.train.size());
    batches.push_back(b);
  }
  return batches;
}

// ---------------------------------------------------------------------------
// Concurrent re-entrant Predict
// ---------------------------------------------------------------------------

// Runs Predict over `batches` sequentially (reference) and concurrently
// (one pool task per batch, each with a private ForwardContext), and
// expects bit-identical probabilities.
void CheckConcurrentPredict(const CtrModel& model,
                            const std::vector<Batch>& batches) {
  std::vector<std::vector<float>> reference(batches.size());
  {
    ForwardContext ctx;
    for (size_t i = 0; i < batches.size(); ++i) {
      model.Predict(batches[i], &reference[i], &ctx);
    }
  }
  std::vector<std::vector<float>> concurrent(batches.size());
  ThreadPool pool(4);
  for (size_t i = 0; i < batches.size(); ++i) {
    pool.Submit([&, i] {
      ForwardContext ctx;
      model.Predict(batches[i], &concurrent[i], &ctx);
    });
  }
  pool.Wait();
  for (size_t i = 0; i < batches.size(); ++i) {
    ASSERT_EQ(concurrent[i].size(), reference[i].size());
    for (size_t k = 0; k < reference[i].size(); ++k) {
      EXPECT_EQ(concurrent[i][k], reference[i][k])
          << "batch " << i << " row " << k;
    }
  }
}

TEST(ConcurrencyTest, ConcurrentPredictFixedArchMatchesSequential) {
  const auto& p = SharedTinyData();
  FixedArchModel model(p.data, MixedArch(p.data.num_pairs()), TinyHp(),
                       "concurrent");
  Batch train_b = HeadBatch(p, 256);
  for (int i = 0; i < 10; ++i) model.TrainStep(train_b);
  CheckConcurrentPredict(model, SplitBatches(p, 8, 64));
}

TEST(ConcurrencyTest, ConcurrentPredictSearchModelMatchesSequential) {
  const auto& p = SharedTinyData();
  for (const std::vector<FactorizeFn>& fns : SearchCandidateSets()) {
    SearchModel model(p.data, TinyHp(), UpdateMode::kJoint, fns);
    Batch train_b = HeadBatch(p, 256);
    for (int i = 0; i < 5; ++i) model.TrainStep(train_b);
    CheckConcurrentPredict(model, SplitBatches(p, 8, 64));
  }
}

TEST(ConcurrencyTest, EvaluateModelParallelBitwiseMatchesSerial) {
  PoolGuard guard;
  const auto& p = SharedTinyData();
  FixedArchModel model(p.data, MixedArch(p.data.num_pairs()), TinyHp(),
                       "eval");
  Batch train_b = HeadBatch(p, 256);
  for (int i = 0; i < 10; ++i) model.TrainStep(train_b);
  constexpr size_t kBatch = 64;  // many batches → the parallel path has work
  ThreadPool::SetGlobalThreads(1);
  const EvalMetrics ref =
      testing::SerialEvaluate(model, p.data, p.splits.val, kBatch);
  for (const size_t threads : {1u, 2u, 4u, 8u}) {
    ThreadPool::SetGlobalThreads(threads);
    const EvalMetrics got =
        EvaluateModel(&model, p.data, p.splits.val, kBatch);
    EXPECT_EQ(got.auc, ref.auc) << threads << " threads";
    EXPECT_EQ(got.logloss, ref.logloss) << threads << " threads";
  }
}

// Distinct layer objects may run their (internally chunked) backward
// passes concurrently: all per-call state is in caller-owned workspaces.
// Primarily a TSan workload; the bit-identity of each result is checked
// against a serial reference.
TEST(ConcurrencyTest, ConcurrentBackwardOnDistinctLayers) {
  Rng rng(5);
  constexpr size_t kLayers = 4;
  std::vector<Linear> layers;
  std::vector<Tensor> xs, cs;
  for (size_t l = 0; l < kLayers; ++l) {
    layers.emplace_back(std::string("l") + std::to_string(l), 32, 8, 1e-3f,
                        0.0f, &rng);
    xs.push_back(RandomTensor({2048, 32}, &rng));
    cs.push_back(RandomTensor({2048, 8}, &rng));
  }
  // Serial reference.
  std::vector<std::vector<float>> ref_dw(kLayers);
  for (size_t l = 0; l < kLayers; ++l) {
    layers[l].weight.grad.Fill(0.0f);
    layers[l].bias.grad.Fill(0.0f);
    LinearWorkspace ws;
    Tensor y, dx;
    layers[l].Forward(xs[l], &y, &ws);
    layers[l].Backward(cs[l], &dx, ws);
    ref_dw[l].assign(layers[l].weight.grad.data(),
                     layers[l].weight.grad.data() +
                         layers[l].weight.grad.size());
  }
  // Concurrent re-run.
  for (size_t l = 0; l < kLayers; ++l) {
    layers[l].weight.grad.Fill(0.0f);
    layers[l].bias.grad.Fill(0.0f);
  }
  ThreadPool pool(4);
  for (size_t l = 0; l < kLayers; ++l) {
    pool.Submit([&, l] {
      LinearWorkspace ws;
      Tensor y, dx;
      layers[l].Forward(xs[l], &y, &ws);
      layers[l].Backward(cs[l], &dx, ws);
    });
  }
  pool.Wait();
  for (size_t l = 0; l < kLayers; ++l) {
    for (size_t i = 0; i < ref_dw[l].size(); ++i) {
      EXPECT_EQ(layers[l].weight.grad[i], ref_dw[l][i])
          << "layer " << l << " dW[" << i << "]";
    }
  }
}

// Full search epoch with a multi-thread pool — the broadest TSan workload:
// Gumbel sampling, gather, z-assembly, MLP forward/backward, the chunked
// interaction backward, sharded scatter, and both optimizers.
TEST(ConcurrencyTest, SearchEpochRunsUnderThreads) {
  PoolGuard guard;
  ThreadPool::SetGlobalThreads(4);
  const auto& p = SharedTinyData();
  SearchOptions opts;
  opts.search_epochs = 1;
  const SearchResult res =
      RunSearchStage(p.data, p.splits, TinyHp(), opts);
  EXPECT_EQ(res.arch.size(), p.data.num_pairs());
}

// ---------------------------------------------------------------------------
// Bit-identical results across thread counts
// ---------------------------------------------------------------------------

TEST(DeterminismTest, LinearBackwardBitIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  Rng rng(91);
  // Shapes cross both parallel thresholds: dy is 8192×8 = 65536 floats
  // (chunked db reduction) and the dW GEMM is 8192·8·48 ≈ 3.1M flops
  // (tree-reduced GemmTN).
  Linear lin("t", 48, 8, 1e-3f, 0.0f, &rng);
  Tensor x = RandomTensor({8192, 48}, &rng, 0.5);
  Tensor c = RandomTensor({8192, 8}, &rng, 0.5);
  auto run = [&]() {
    lin.weight.grad.Fill(0.0f);
    lin.bias.grad.Fill(0.0f);
    LinearWorkspace ws;
    Tensor y, dx;
    lin.Forward(x, &y, &ws);
    lin.Backward(c, &dx, ws);
    std::vector<float> out(lin.weight.grad.data(),
                           lin.weight.grad.data() + lin.weight.grad.size());
    out.insert(out.end(), lin.bias.grad.data(),
               lin.bias.grad.data() + lin.bias.grad.size());
    out.insert(out.end(), dx.data(), dx.data() + dx.size());
    return out;
  };
  ThreadPool::SetGlobalThreads(1);
  const std::vector<float> ref = run();
  for (size_t threads : {2u, 8u}) {
    ThreadPool::SetGlobalThreads(threads);
    const std::vector<float> got = run();
    ASSERT_EQ(got.size(), ref.size());
    for (size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(got[i], ref[i]) << threads << " threads, index " << i;
    }
  }
}

// Runs the prepared forward + scatter of `emb` over `batch` with upstream
// gradient `d_out` and returns each categorical table's gradient as a
// dense [BackingRows × dim] block (zeros for rows the batch did not
// touch), in field order. Leaves no scatter armed.
std::vector<std::vector<float>> PreparedScatterGrads(FeatureEmbedding* emb,
                                                     const Batch& batch,
                                                     const Tensor& d_out) {
  PreparedBatch prep;
  prep.BeginFill(batch);
  emb->Prepare(batch, &prep);
  Tensor out;
  emb->ForwardPrepared(prep, prep.cat, &out);
  emb->BackwardPrepared(d_out, prep, prep.cat);
  std::vector<std::vector<float>> grads(emb->num_categorical());
  for (size_t f = 0; f < grads.size(); ++f) {
    const EmbeddingTable& t = emb->cat_table(f);
    grads[f].assign(t.BackingRows() * t.dim(), 0.0f);
    const std::vector<int32_t>& rows = prep.cat[f].unique_rows;
    for (size_t slot = 0; slot < rows.size(); ++slot) {
      std::memcpy(grads[f].data() + static_cast<size_t>(rows[slot]) * t.dim(),
                  t.PreparedGrad(slot), t.dim() * sizeof(float));
    }
  }
  emb->ClearPreparedGrads();
  return grads;
}

// Every table's PreparedScatterGrads block, concatenated.
std::vector<float> FlatScatterGrads(FeatureEmbedding* emb, const Batch& batch,
                                    const Tensor& d_out) {
  std::vector<float> flat;
  for (const std::vector<float>& g : PreparedScatterGrads(emb, batch, d_out)) {
    flat.insert(flat.end(), g.begin(), g.end());
  }
  return flat;
}

TEST(DeterminismTest, EmbeddingScatterBitIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  const auto& p = SharedTinyData();
  Rng rng(17);
  FeatureEmbedding emb(p.data, 8, 1e-3f, 0.0f, &rng);
  Batch batch = HeadBatch(p, 1024);  // 1024×56 floats → parallel scatter
  Tensor d_out = RandomTensor({batch.size, emb.output_dim()}, &rng);
  // Dense tables: backing rows are ids, so this is every table's gradient
  // in id order.
  auto run = [&]() { return FlatScatterGrads(&emb, batch, d_out); };
  ThreadPool::SetGlobalThreads(1);
  const std::vector<float> ref = run();
  for (size_t threads : {2u, 8u}) {
    ThreadPool::SetGlobalThreads(threads);
    const std::vector<float> got = run();
    ASSERT_EQ(got.size(), ref.size());
    for (size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(got[i], ref[i]) << threads << " threads, index " << i;
    }
  }
}

// The same scatter contract for the compositional backends: gradient
// shards are keyed on BACKING rows, so QR factor sharing and tiered
// bucket collisions must accumulate bit-identically at any thread count.
void CheckBackendScatterDeterminism(const EmbeddingBackendConfig& backend) {
  const auto& p = SharedTinyData();
  Rng rng(17);
  FeatureEmbedding emb(p.data, 8, 1e-3f, 0.0f, &rng, backend);
  Batch batch = HeadBatch(p, 1024);
  Tensor d_out = RandomTensor({batch.size, emb.output_dim()}, &rng);
  auto run = [&]() { return FlatScatterGrads(&emb, batch, d_out); };
  ThreadPool::SetGlobalThreads(1);
  const std::vector<float> ref = run();
  for (size_t threads : {2u, 8u}) {
    ThreadPool::SetGlobalThreads(threads);
    const std::vector<float> got = run();
    ASSERT_EQ(got.size(), ref.size());
    for (size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(got[i], ref[i]) << threads << " threads, index " << i;
    }
  }
}

TEST(DeterminismTest, QrSumScatterBitIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  EmbeddingBackendConfig cfg = EmbeddingBackendConfig::QR();
  cfg.min_vocab = 2;
  CheckBackendScatterDeterminism(cfg);
}

TEST(DeterminismTest, QrMulScatterBitIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  EmbeddingBackendConfig cfg =
      EmbeddingBackendConfig::QR(0, QrCombine::kMul);
  cfg.min_vocab = 2;
  CheckBackendScatterDeterminism(cfg);
}

TEST(DeterminismTest, TieredScatterBitIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  EmbeddingBackendConfig cfg = EmbeddingBackendConfig::Tiered();
  cfg.min_vocab = 2;
  CheckBackendScatterDeterminism(cfg);
}

// Flattened trainable state + predictions of a model, for bit-exact
// comparison of whole training runs.
std::vector<float> SnapshotModel(CtrModel* model, const Batch& batch) {
  std::vector<float> snap;
  std::vector<Tensor*> state;
  model->CollectState(&state);
  for (const Tensor* t : state) {
    snap.insert(snap.end(), t->data(), t->data() + t->size());
  }
  std::vector<float> probs;
  ForwardContext ctx;
  model->Predict(batch, &probs, &ctx);
  snap.insert(snap.end(), probs.begin(), probs.end());
  return snap;
}

void ExpectBitIdentical(const std::vector<float>& got,
                        const std::vector<float>& ref, size_t threads) {
  ASSERT_EQ(got.size(), ref.size());
  size_t mismatches = 0;
  for (size_t i = 0; i < ref.size(); ++i) {
    if (std::memcmp(&got[i], &ref[i], sizeof(float)) != 0) {
      if (++mismatches <= 5) {
        ADD_FAILURE() << threads << " threads: state differs at index " << i
                      << ": " << got[i] << " vs " << ref[i];
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << threads << " threads";
}

TEST(DeterminismTest, TrainModelBitIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  const auto& p = SharedTinyData();
  auto run = [&](size_t threads) {
    ThreadPool::SetGlobalThreads(threads);
    FixedArchModel model(p.data, MixedArch(p.data.num_pairs()), TinyHp(),
                         "det");
    TrainOptions opts;
    opts.epochs = 2;
    opts.batch_size = 1024;  // crosses the GEMM / scatter thresholds
    opts.seed = 123;
    TrainModel(&model, p.data, p.splits, opts);
    return SnapshotModel(&model, HeadBatch(p, 256));
  };
  const std::vector<float> ref = run(1);
  ExpectBitIdentical(run(2), ref, 2);
  ExpectBitIdentical(run(8), ref, 8);
}

TEST(DeterminismTest, TrainModelBitIdenticalWithCompressedCrossTables) {
  // Full training runs stay bit-identical across thread counts when the
  // cross tables use QR / tiered storage (DESIGN.md §5 holds per
  // BACKING row, not per logical id).
  PoolGuard guard;
  const auto& p = SharedTinyData();
  for (const auto& backend :
       {EmbeddingBackendConfig::QR(0, QrCombine::kMul),
        EmbeddingBackendConfig::Tiered()}) {
    auto run = [&](size_t threads) {
      ThreadPool::SetGlobalThreads(threads);
      HyperParams hp = TinyHp();
      hp.cross_backend = backend;
      hp.cross_backend.min_vocab = 2;
      FixedArchModel model(p.data, MixedArch(p.data.num_pairs()), hp,
                           "det");
      TrainOptions opts;
      opts.epochs = 1;
      opts.batch_size = 1024;
      opts.seed = 123;
      TrainModel(&model, p.data, p.splits, opts);
      return SnapshotModel(&model, HeadBatch(p, 256));
    };
    const std::vector<float> ref = run(1);
    ExpectBitIdentical(run(2), ref, 2);
    ExpectBitIdentical(run(8), ref, 8);
  }
}

TEST(DeterminismTest, SearchModelBitIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  const auto& p = SharedTinyData();
  for (const std::vector<FactorizeFn>& fns : SearchCandidateSets()) {
    auto run = [&](size_t threads) {
      ThreadPool::SetGlobalThreads(threads);
      SearchModel model(p.data, TinyHp(), UpdateMode::kJoint, fns);
      Batch b = HeadBatch(p, 1024);
      for (int i = 0; i < 5; ++i) model.TrainStep(b);
      // Snapshot includes α (via CollectState) and eval-mode logits.
      std::vector<float> snap = SnapshotModel(&model, HeadBatch(p, 256));
      const Tensor& alpha = model.alpha().value;
      snap.insert(snap.end(), alpha.data(), alpha.data() + alpha.size());
      return snap;
    };
    const std::vector<float> ref = run(1);
    ExpectBitIdentical(run(2), ref, 2);
    ExpectBitIdentical(run(8), ref, 8);
  }
}

TEST(DeterminismTest, RunSearchStageBitIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  const auto& p = SharedTinyData();
  SearchOptions opts;
  opts.search_epochs = 1;
  auto run = [&](size_t threads) {
    ThreadPool::SetGlobalThreads(threads);
    return RunSearchStage(p.data, p.splits, TinyHp(), opts);
  };
  const SearchResult ref = run(1);
  for (size_t threads : {2u, 8u}) {
    const SearchResult got = run(threads);
    EXPECT_TRUE(got.arch == ref.arch) << threads << " threads";
    EXPECT_EQ(got.search_val.auc, ref.search_val.auc);
    EXPECT_EQ(got.search_val.logloss, ref.search_val.logloss);
    EXPECT_EQ(got.search_test.auc, ref.search_test.auc);
    EXPECT_EQ(got.search_test.logloss, ref.search_test.logloss);
  }
}

// ---------------------------------------------------------------------------
// Finite-difference checks of the parallel backward paths
// ---------------------------------------------------------------------------

TEST(GradCheckParallelTest, LinearBackwardAcrossThreadCounts) {
  PoolGuard guard;
  Rng rng(21);
  Linear lin("t", 48, 8, 1e-3f, 0.0f, &rng);
  Tensor x = RandomTensor({8192, 48}, &rng, 0.5);
  Tensor c = RandomTensor({8192, 8}, &rng, 0.5);
  auto compute = [&]() {
    lin.weight.grad.Fill(0.0f);
    lin.bias.grad.Fill(0.0f);
    LinearWorkspace ws;
    Tensor y, dx;
    lin.Forward(x, &y, &ws);
    lin.Backward(c, &dx, ws);
    std::vector<float> g(lin.weight.grad.data(),
                         lin.weight.grad.data() + lin.weight.grad.size());
    return g;
  };
  auto loss = [&]() {
    LinearWorkspace ws;
    Tensor y;
    lin.Forward(x, &y, &ws);
    return WeightedSum(y, c);
  };
  CheckGradientAcrossThreadCounts({1, 2, 8}, compute,
                                  lin.weight.value.data(), /*check_n=*/32,
                                  loss);
}

TEST(GradCheckParallelTest, LayerNormBackwardAcrossThreadCounts) {
  PoolGuard guard;
  Rng rng(22);
  LayerNorm ln("t", 64, 1e-3f, 0.0f);
  for (size_t i = 0; i < 64; ++i) {
    ln.gamma.value[i] = 0.5f + 0.01f * static_cast<float>(i);
    ln.beta.value[i] = 0.02f * static_cast<float>(i);
  }
  Tensor x = RandomTensor({512, 64}, &rng, 2.0);  // 32768 floats → parallel
  Tensor c = RandomTensor({512, 64}, &rng);
  auto compute = [&]() {
    ln.gamma.grad.Fill(0.0f);
    ln.beta.grad.Fill(0.0f);
    LayerNormWorkspace ws;
    Tensor y, dx;
    ln.Forward(x, &y, &ws);
    ln.Backward(c, &dx, ws);
    std::vector<float> g(ln.gamma.grad.data(),
                         ln.gamma.grad.data() + ln.gamma.grad.size());
    g.insert(g.end(), ln.beta.grad.data(),
             ln.beta.grad.data() + ln.beta.grad.size());
    return g;
  };
  auto loss = [&]() {
    LayerNormWorkspace ws;
    Tensor y;
    ln.Forward(x, &y, &ws);
    return WeightedSum(y, c);
  };
  CheckGradientAcrossThreadCounts({1, 2, 8}, compute,
                                  ln.gamma.value.data(), /*check_n=*/32,
                                  loss, 1e-3, 4e-2);
}

TEST(GradCheckParallelTest, EmbeddingScatterAcrossThreadCounts) {
  PoolGuard guard;
  const auto& p = SharedTinyData();
  Rng rng(23);
  FeatureEmbedding emb(p.data, 8, 1e-3f, 0.0f, &rng);
  Batch batch = HeadBatch(p, 1024);
  Tensor c = RandomTensor({batch.size, emb.output_dim()}, &rng);
  EmbeddingTable& table = emb.cat_table(0);
  // Dense view of table 0's grads, aligned with its values.
  auto compute = [&]() { return PreparedScatterGrads(&emb, batch, c)[0]; };
  auto loss = [&]() {
    Tensor out;
    emb.Gather(batch, &out);
    return WeightedSum(out, c);
  };
  CheckGradientAcrossThreadCounts({1, 2, 8}, compute,
                                  table.mutable_values().data(),
                                  /*check_n=*/24, loss);
}

// Same finite-difference check against the BACKING parameters of a
// compositional table: validates the QR sum/mul chain rules (including
// the mul product rule reading the co-factor row) and tiered bucket
// sharing numerically, at every thread count.
void CheckBackendScatterGradient(const EmbeddingBackendConfig& backend) {
  const auto& p = SharedTinyData();
  Rng rng(23);
  FeatureEmbedding emb(p.data, 8, 1e-3f, 0.0f, &rng, backend);
  Batch batch = HeadBatch(p, 1024);
  Tensor c = RandomTensor({batch.size, emb.output_dim()}, &rng);
  EmbeddingTable& table = emb.cat_table(0);
  // Dense view of table 0's grads in BACKING space, aligned with its
  // values tensor.
  auto compute = [&]() { return PreparedScatterGrads(&emb, batch, c)[0]; };
  auto loss = [&]() {
    Tensor out;
    emb.Gather(batch, &out);
    return WeightedSum(out, c);
  };
  // Tiered backings can be tiny (hot + buckets); cap at the table size.
  const size_t check_n =
      std::min<size_t>(24, table.BackingRows() * table.dim());
  CheckGradientAcrossThreadCounts({1, 2, 8}, compute,
                                  table.mutable_values().data(), check_n,
                                  loss);
}

TEST(GradCheckParallelTest, QrSumScatterAcrossThreadCounts) {
  PoolGuard guard;
  EmbeddingBackendConfig cfg = EmbeddingBackendConfig::QR();
  cfg.min_vocab = 2;
  CheckBackendScatterGradient(cfg);
}

TEST(GradCheckParallelTest, QrMulScatterAcrossThreadCounts) {
  PoolGuard guard;
  EmbeddingBackendConfig cfg =
      EmbeddingBackendConfig::QR(0, QrCombine::kMul);
  cfg.min_vocab = 2;
  CheckBackendScatterGradient(cfg);
}

TEST(GradCheckParallelTest, TieredScatterAcrossThreadCounts) {
  PoolGuard guard;
  EmbeddingBackendConfig cfg = EmbeddingBackendConfig::Tiered();
  cfg.min_vocab = 2;
  CheckBackendScatterGradient(cfg);
}

// The one backward walk of InteractionLayout against central differences
// of loss = Σ z ⊙ c, on a layout that mixes single-arm blocks (memorize,
// Hadamard, inner, sum), a naïve pair, K = 4 weighted blocks {memorize,
// Hadamard, inner} (+ naïve) and a memorized triple. s2 = 5 > s1 = 4, so
// the weighted blocks pad their factorized arms. Checked: d/d e^o, d/d the
// memorized rows and d/d the weights (dp), at batches on both sides of
// the parallel cut-off (64 × 64 and 1024 × 64 floats of z).
void CheckInteractionBackward(size_t b) {
  using Arm = InteractionLayout::Arm;
  const Arm mem{InterMethod::kMemorize};
  const Arm had{InterMethod::kFactorize, FactorizeFn::kHadamard};
  const Arm inner{InterMethod::kFactorize, FactorizeFn::kInnerProduct};
  const Arm sum{InterMethod::kFactorize, FactorizeFn::kPointwiseSum};
  std::vector<std::vector<Arm>> pair_arms = {{mem}, {had}, {inner}, {sum},
                                             {}};
  while (pair_arms.size() < 10) pair_arms.push_back({mem, had, inner});
  constexpr size_t kS1 = 4, kS2 = 5, kFields = 5;
  const InteractionLayout layout(pair_arms, kFields, kFields * kS1, kS1, kS2,
                                 /*num_triples=*/1);
  ASSERT_EQ(layout.z_cols(), 64u);
  ASSERT_EQ(layout.weight_stride, 4u);

  Rng rng(24);
  Tensor emb = RandomTensor({b, layout.emb_cols}, &rng);
  Tensor cross = RandomTensor({b, layout.pair_slots * kS2}, &rng);
  Tensor triple = RandomTensor({b, kS2}, &rng);
  Tensor weights = RandomTensor({layout.num_pairs, layout.weight_stride},
                                &rng);
  const Tensor c = RandomTensor({b, layout.z_cols()}, &rng);
  const GatheredRows rows{emb, cross, triple, kS2};
  auto loss = [&]() {
    Tensor z;
    AssembleRows(layout, rows, b, &z, weights.data());
    return WeightedSum(z, c);
  };
  // Every gradient the walk writes, the one under test first.
  auto grads_of = [&](int first) {
    return [&, first]() {
      InteractionGrads g;
      AssembleRowsBackward(layout, rows, weights.data(), c, &g);
      const std::vector<float> dp(g.dp.begin(), g.dp.end());
      std::vector<std::vector<float>> parts = {
          {g.demb.data(), g.demb.data() + g.demb.size()},
          {g.dcross.data(), g.dcross.data() + g.dcross.size()},
          dp,
          {g.dtriple.data(), g.dtriple.data() + g.dtriple.size()}};
      std::rotate(parts.begin(), parts.begin() + first, parts.end());
      std::vector<float> all;
      for (const std::vector<float>& part : parts) {
        all.insert(all.end(), part.begin(), part.end());
      }
      return all;
    };
  };
  CheckGradientAcrossThreadCounts({1, 2, 8}, grads_of(0), emb.data(),
                                  /*check_n=*/2 * layout.emb_cols, loss);
  CheckGradientAcrossThreadCounts({1, 2, 8}, grads_of(1), cross.data(),
                                  /*check_n=*/cross.cols(), loss);
  CheckGradientAcrossThreadCounts({1, 2, 8}, grads_of(2), weights.data(),
                                  /*check_n=*/weights.size(), loss);
}

TEST(GradCheckParallelTest, InteractionBackwardSerialBatch) {
  PoolGuard guard;
  CheckInteractionBackward(64);
}

TEST(GradCheckParallelTest, InteractionBackwardParallelBatch) {
  PoolGuard guard;
  CheckInteractionBackward(1024);
}

// ---------------------------------------------------------------------------
// Pipelined executor vs a serial TrainStep loop
// ---------------------------------------------------------------------------

// TrainModel steps every epoch through the pipelined executor; at every
// thread count it must train bit-for-bit what a hand-written TrainStep loop
// over the same batch stream trains at 1 thread — the executor only moves
// PrepareBatch onto the pool, never the math. Train split only, so no
// best-epoch snapshot is restored and the loop below is the whole run.
TEST(DeterminismTest, PipelinedTrainModelMatchesSerialAcrossThreadCounts) {
  PoolGuard guard;
  const auto& p = SharedTinyData();
  constexpr size_t kEpochs = 2;
  constexpr size_t kBatch = 1024;  // crosses the GEMM / scatter thresholds
  constexpr uint64_t kSeed = 123;
  const Batch head = HeadBatch(p, 256);

  ThreadPool::SetGlobalThreads(1);
  FixedArchModel serial(p.data, MixedArch(p.data.num_pairs()), TinyHp(),
                        "pipe");
  Batcher batcher(&p.data, p.splits.train, kBatch, kSeed);
  for (size_t epoch = 0; epoch < kEpochs; ++epoch) {
    batcher.StartEpoch();
    for (Batch b = batcher.Next(); b.size != 0; b = batcher.Next()) {
      serial.TrainStep(b);
    }
  }
  const std::vector<float> ref = SnapshotModel(&serial, head);

  Splits train_only;
  train_only.train = p.splits.train;
  for (size_t threads : {1u, 2u, 8u}) {
    ThreadPool::SetGlobalThreads(threads);
    FixedArchModel model(p.data, MixedArch(p.data.num_pairs()), TinyHp(),
                         "pipe");
    TrainOptions opts;
    opts.epochs = kEpochs;
    opts.batch_size = kBatch;
    opts.seed = kSeed;
    TrainModel(&model, p.data, train_only, opts);
    ExpectBitIdentical(SnapshotModel(&model, head), ref, threads);
  }
}

// The search stage's serial reference: the same annealed temperature per
// epoch and the same train batch stream as RunSearchStage, stepped with
// TrainStep; in bi-level mode each TrainStep is followed by ArchStep on
// the next validation batch (restarting that batcher when it runs dry),
// with RunSearchStage's validation seed. Returns the arch and the
// search-model val/test metrics.
SearchResult SerialSearchStage(const testing::PreparedData& p,
                               const HyperParams& hp, UpdateMode mode,
                               size_t epochs) {
  SearchModel model(p.data, hp, mode);
  Batcher batcher(&p.data, p.splits.train, hp.batch_size, hp.seed);
  Batcher arch_batcher(&p.data, p.splits.val, hp.batch_size,
                       hp.seed ^ 0xa5c3ULL);
  arch_batcher.StartEpoch();
  for (size_t epoch = 0; epoch < epochs; ++epoch) {
    model.SetTemperature(AnnealedTemperature(hp, epoch, epochs));
    batcher.StartEpoch();
    for (Batch b = batcher.Next(); b.size != 0; b = batcher.Next()) {
      model.TrainStep(b);
      if (mode != UpdateMode::kBilevel) continue;
      Batch vb = arch_batcher.Next();
      if (vb.size == 0) {
        arch_batcher.StartEpoch();
        vb = arch_batcher.Next();
      }
      model.ArchStep(vb);
    }
  }
  SearchResult r;
  r.arch = model.ExtractArchitecture();
  r.search_val = EvaluateModel(&model, p.data, p.splits.val);
  r.search_test = EvaluateModel(&model, p.data, p.splits.test);
  return r;
}

// RunSearchStage at 1/2/8 pool threads against the 1-thread serial
// reference: the same arch and bit-identical val/test AUC and log loss.
void ExpectSearchStageMatchesSerial(UpdateMode mode, size_t epochs) {
  PoolGuard guard;
  const auto& p = SharedTinyData();
  ASSERT_FALSE(p.splits.val.empty());
  ThreadPool::SetGlobalThreads(1);
  const SearchResult ref = SerialSearchStage(p, TinyHp(), mode, epochs);
  for (size_t threads : {1u, 2u, 8u}) {
    ThreadPool::SetGlobalThreads(threads);
    SearchOptions opts;
    opts.search_epochs = epochs;
    opts.mode = mode;
    const SearchResult got = RunSearchStage(p.data, p.splits, TinyHp(), opts);
    EXPECT_TRUE(got.arch == ref.arch) << threads << " threads";
    EXPECT_EQ(got.search_val.auc, ref.search_val.auc) << threads;
    EXPECT_EQ(got.search_val.logloss, ref.search_val.logloss) << threads;
    EXPECT_EQ(got.search_test.auc, ref.search_test.auc) << threads;
    EXPECT_EQ(got.search_test.logloss, ref.search_test.logloss) << threads;
  }
}

// Joint search: the Gumbel noise stream is consumed inside ForwardBackward
// in batch order, so pipelining must not move it.
TEST(DeterminismTest, PipelinedSearchStageMatchesSerialAcrossThreadCounts) {
  ExpectSearchStageMatchesSerial(UpdateMode::kJoint, /*epochs=*/1);
}

// Bi-level search: ArchStep runs from the executor's quiescent-point hook,
// after the next train batch's prefetch is joined, so TrainStep(b_t),
// ArchStep(vb_t) keep their serial order and the Gumbel draws with them.
// Two epochs exercise the annealed temperature between them.
TEST(DeterminismTest, PipelinedBilevelSearchStageMatchesSerialAcrossThreadCounts) {
  ExpectSearchStageMatchesSerial(UpdateMode::kBilevel, /*epochs=*/2);
}

// Pipelined TSan workload: prefetched PrepareBatch tasks overlap the
// compute thread's ForwardBackward/ApplyGrads (plus the nested parallel
// kernels) for a full search epoch on a multi-thread pool.
TEST(ConcurrencyTest, PipelinedSearchEpochRunsUnderThreads) {
  PoolGuard guard;
  ThreadPool::SetGlobalThreads(4);
  const auto& p = SharedTinyData();
  for (const std::vector<FactorizeFn>& fns : SearchCandidateSets()) {
    SearchModel model(p.data, TinyHp(), UpdateMode::kJoint, fns);
    Batcher batcher(&p.data, p.splits.train, /*batch_size=*/512,
                    /*seed=*/9);
    PipelinedTrainExecutor executor(&model);
    batcher.StartEpoch();
    const PipelinedTrainExecutor::EpochStats stats =
        executor.RunEpoch(&batcher);
    EXPECT_EQ(stats.rows, p.splits.train.size());
    EXPECT_GT(stats.batches, 1u);
    EXPECT_EQ(executor.steps_done(), stats.batches);
  }
}

// ---------------------------------------------------------------------------
// Parallel AUC and elementwise forward paths
// ---------------------------------------------------------------------------

// Heavy ties + a size past the parallel-sort threshold: the (score, index)
// total order makes the parallel merge sort reproduce the serial
// permutation exactly, so the AUC must match bit for bit.
TEST(DeterminismTest, AucParallelBitIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  Rng rng(5);
  const size_t n = (1u << 16) + 331;
  std::vector<float> scores(n), labels(n);
  for (size_t i = 0; i < n; ++i) {
    scores[i] =
        static_cast<float>(static_cast<int>(rng.Uniform(0.0, 64.0))) / 64.0f;
    labels[i] = rng.Uniform(0.0, 1.0) < 0.3 ? 1.0f : 0.0f;
  }
  const double serial = internal::AucSerial(scores, labels);
  for (size_t threads : {1u, 2u, 8u}) {
    ThreadPool::SetGlobalThreads(threads);
    EXPECT_EQ(Auc(scores, labels), serial) << threads << " threads";
  }
}

TEST(DeterminismTest, SigmoidForwardBitIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  Rng rng(31);
  const size_t n = (1u << 16) + 17;  // crosses kParallelElems
  std::vector<float> z(n), ref(n), got(n);
  for (float& v : z) v = static_cast<float>(rng.Uniform(-8.0, 8.0));
  ThreadPool::SetGlobalThreads(1);
  SigmoidForward(z.data(), n, ref.data());
  for (size_t threads : {2u, 8u}) {
    ThreadPool::SetGlobalThreads(threads);
    SigmoidForward(z.data(), n, got.data());
    EXPECT_EQ(std::memcmp(got.data(), ref.data(), n * sizeof(float)), 0)
        << threads << " threads";
  }
}

// ---------------------------------------------------------------------------
// Bitwise thread-count invariance of the SIMD kernel layer (tensor/kernels):
// every kernel that fans out under pool-size-dependent chunking must produce
// identical bits at 1, 2, and 8 threads within a build. GEMM shapes are
// chosen above the kParallelFlops threshold with odd edges so partial
// micro-tiles and panels sit on chunk boundaries.
// ---------------------------------------------------------------------------

template <typename Fn>
void ExpectKernelBitInvariant(size_t out_size, Fn&& run) {
  PoolGuard guard;
  ThreadPool::SetGlobalThreads(1);
  std::vector<float> ref(out_size);
  run(ref.data());
  for (size_t threads : {2u, 8u}) {
    ThreadPool::SetGlobalThreads(threads);
    std::vector<float> got(out_size);
    run(got.data());
    EXPECT_EQ(
        std::memcmp(got.data(), ref.data(), out_size * sizeof(float)), 0)
        << threads << " threads";
  }
}

TEST(DeterminismTest, GemmNNBitIdenticalAcrossThreadCounts) {
  Rng rng(41);
  const size_t m = 517, k = 129, n = 67;  // m·k·n > 2^21 → parallel path
  std::vector<float> a(m * k), b(k * n);
  for (float& v : a) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  for (float& v : b) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  ExpectKernelBitInvariant(m * n, [&](float* c) {
    GemmNN(a.data(), b.data(), c, m, k, n, 0.5f, 0.0f);
  });
}

TEST(DeterminismTest, GemmNTBitIdenticalAcrossThreadCounts) {
  Rng rng(42);
  const size_t m = 517, k = 129, n = 67;
  std::vector<float> a(m * k), b(n * k);
  for (float& v : a) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  for (float& v : b) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  ExpectKernelBitInvariant(m * n, [&](float* c) {
    GemmNT(a.data(), b.data(), c, m, k, n, 1.0f, 0.0f);
  });
}

TEST(DeterminismTest, GemmTNBitIdenticalAcrossThreadCounts) {
  Rng rng(43);
  const size_t m = 1031, k = 65, n = 33;
  std::vector<float> a(m * k), b(m * n);
  for (float& v : a) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  for (float& v : b) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  ExpectKernelBitInvariant(k * n, [&](float* c) {
    GemmTN(a.data(), b.data(), c, m, k, n, 1.0f, 0.0f);
  });
}

TEST(DeterminismTest, ReluForwardBackwardBitIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  Rng rng(44);
  const size_t n = (1u << 16) + 13;  // crosses kParallelElems, odd tail
  Tensor x({n});
  for (size_t i = 0; i < n; ++i) {
    x[i] = static_cast<float>(rng.Uniform(-1.0, 1.0));
  }
  Tensor dy({n});
  for (size_t i = 0; i < n; ++i) {
    dy[i] = static_cast<float>(rng.Uniform(-1.0, 1.0));
  }
  Relu relu;
  ThreadPool::SetGlobalThreads(1);
  Tensor y_ref, dx_ref;
  {
    ReluWorkspace ws;
    relu.Forward(x, &y_ref, &ws);
    relu.Backward(dy, &dx_ref, ws);
  }
  for (size_t threads : {2u, 8u}) {
    ThreadPool::SetGlobalThreads(threads);
    ReluWorkspace ws;
    Tensor y, dx;
    relu.Forward(x, &y, &ws);
    relu.Backward(dy, &dx, ws);
    EXPECT_EQ(std::memcmp(y.data(), y_ref.data(), n * sizeof(float)), 0)
        << "forward, " << threads << " threads";
    EXPECT_EQ(std::memcmp(dx.data(), dx_ref.data(), n * sizeof(float)), 0)
        << "backward, " << threads << " threads";
  }
}

// One optimizer step on a parameter big enough to fan out, with an odd tail
// so vector-group boundaries move with the chunking.
template <typename MakeOpt>
std::vector<float> DenseOptimizerResult(size_t threads, MakeOpt&& make_opt) {
  ThreadPool::SetGlobalThreads(threads);
  Rng rng(45);
  DenseParam p;
  p.Resize({(1u << 15) + 29});
  p.lr = 1e-2f;
  p.l2 = 1e-4f;
  for (size_t i = 0; i < p.size(); ++i) {
    p.value[i] = static_cast<float>(rng.Uniform(-1.0, 1.0));
    p.grad[i] = static_cast<float>(rng.Uniform(-1.0, 1.0));
  }
  auto opt = make_opt();
  opt->AddParam(&p);
  opt->Step();
  return std::vector<float>(p.value.data(), p.value.data() + p.size());
}

TEST(DeterminismTest, DenseSgdStepBitIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  auto make = [] { return std::make_unique<Sgd>(); };
  const std::vector<float> ref = DenseOptimizerResult(1, make);
  ExpectBitIdentical(DenseOptimizerResult(2, make), ref, 2);
  ExpectBitIdentical(DenseOptimizerResult(8, make), ref, 8);
}

TEST(DeterminismTest, DenseAdamStepBitIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  auto make = [] { return std::make_unique<Adam>(); };
  const std::vector<float> ref = DenseOptimizerResult(1, make);
  ExpectBitIdentical(DenseOptimizerResult(2, make), ref, 2);
  ExpectBitIdentical(DenseOptimizerResult(8, make), ref, 8);
}

TEST(DeterminismTest, LayerNormForwardBackwardBitIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  Rng rng(46);
  const size_t batch = 1037, dim = 37;  // odd dim → scalar row tails
  LayerNorm ln("ln", dim, 1e-3f, 0.0f);
  Tensor x = RandomTensor({batch, dim}, &rng, 1.0);
  Tensor dy = RandomTensor({batch, dim}, &rng, 1.0);
  ThreadPool::SetGlobalThreads(1);
  Tensor y_ref, dx_ref;
  std::vector<float> dg_ref, db_ref;
  {
    LayerNormWorkspace ws;
    ln.Forward(x, &y_ref, &ws);
    ln.gamma.ZeroGrad();
    ln.beta.ZeroGrad();
    ln.Backward(dy, &dx_ref, ws);
    dg_ref.assign(ln.gamma.grad.data(), ln.gamma.grad.data() + dim);
    db_ref.assign(ln.beta.grad.data(), ln.beta.grad.data() + dim);
  }
  for (size_t threads : {2u, 8u}) {
    ThreadPool::SetGlobalThreads(threads);
    LayerNormWorkspace ws;
    Tensor y, dx;
    ln.Forward(x, &y, &ws);
    ln.gamma.ZeroGrad();
    ln.beta.ZeroGrad();
    ln.Backward(dy, &dx, ws);
    EXPECT_EQ(
        std::memcmp(y.data(), y_ref.data(), y.size() * sizeof(float)), 0)
        << "forward, " << threads << " threads";
    EXPECT_EQ(
        std::memcmp(dx.data(), dx_ref.data(), dx.size() * sizeof(float)), 0)
        << "backward dx, " << threads << " threads";
    EXPECT_EQ(std::memcmp(ln.gamma.grad.data(), dg_ref.data(),
                          dim * sizeof(float)), 0)
        << "dgamma, " << threads << " threads";
    EXPECT_EQ(std::memcmp(ln.beta.grad.data(), db_ref.data(),
                          dim * sizeof(float)), 0)
        << "dbeta, " << threads << " threads";
  }
}

TEST(DeterminismTest, LinearForwardBiasAddBitIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  Rng rng(12);
  Linear lin("bias", 16, 8, 1e-3f, 0.0f, &rng);
  for (size_t i = 0; i < lin.bias.value.size(); ++i) {
    lin.bias.value[i] = static_cast<float>(rng.Uniform(-1.0, 1.0));
  }
  Tensor x = RandomTensor({8192, 16}, &rng, 0.5);  // 8192×8 out → parallel
  ThreadPool::SetGlobalThreads(1);
  Tensor ref;
  {
    LinearWorkspace ws;
    lin.Forward(x, &ref, &ws);
  }
  for (size_t threads : {2u, 8u}) {
    ThreadPool::SetGlobalThreads(threads);
    LinearWorkspace ws;
    Tensor y;
    lin.Forward(x, &y, &ws);
    ASSERT_EQ(y.size(), ref.size());
    EXPECT_EQ(std::memcmp(y.data(), ref.data(), y.size() * sizeof(float)), 0)
        << threads << " threads";
  }
}

// ---------------------------------------------------------------------------
// Streamed training determinism: the out-of-core path must be bitwise
// identical to in-RAM training at every thread count and prefetch depth.
// ---------------------------------------------------------------------------

// A shard directory at a per-process TempPath (removed at exit), filled by
// `write` once per process. ctest runs each TEST as its own process, and a
// shared directory would let one process remove_all() shards another has
// mmapped.
class ProcessShardDir {
 public:
  ProcessShardDir(const std::string& name,
                  const std::function<Status(const std::string&)>& write)
      : path_(testing::TempPath(name)) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
    CHECK_OK(write(path_));
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// The shared tiny dataset written once as a shard directory.
const std::string& TinyShardDir() {
  static const ProcessShardDir dir(
      "concurrency_shards", [](const std::string& d) {
        return WriteShardedDataset(SharedTinyData().data, d, 512);
      });
  return dir.path();
}

// Contiguous 0.7/0.15/0.15 splits — the streaming trainer's convention.
Splits ContiguousSplits(size_t n) {
  const size_t train_end =
      std::max<size_t>(1, static_cast<size_t>(n * 0.7));
  const size_t val_end =
      std::min(n, train_end + static_cast<size_t>(n * 0.15));
  Splits s;
  for (size_t r = 0; r < train_end; ++r) s.train.push_back(r);
  for (size_t r = train_end; r < val_end; ++r) s.val.push_back(r);
  for (size_t r = val_end; r < n; ++r) s.test.push_back(r);
  return s;
}

void ExpectSummariesBitIdentical(const TrainSummary& got,
                                 const TrainSummary& ref) {
  EXPECT_EQ(got.epochs_run, ref.epochs_run);
  EXPECT_EQ(got.epoch_train_losses, ref.epoch_train_losses);
  EXPECT_EQ(got.epoch_val_aucs, ref.epoch_val_aucs);
  EXPECT_EQ(got.final_val.auc, ref.final_val.auc);
  EXPECT_EQ(got.final_val.logloss, ref.final_val.logloss);
  EXPECT_EQ(got.final_test.auc, ref.final_test.auc);
  EXPECT_EQ(got.final_test.logloss, ref.final_test.logloss);
}

// The tiny profile hash-encoded by StreamEncodeToShards, written once.
// Cross features are hashed too; 256 buckets are few enough that cross
// ids collide (2524 of the 29019 bucketed cross values).
const std::string& HashedTinyShardDir() {
  static const ProcessShardDir dir(
      "concurrency_hashed", [](const std::string& d) {
        StreamEncodeOptions opts;
        opts.hashed = true;
        opts.build_cross = true;
        opts.hash_hot_values = 16;
        opts.hash_buckets = 256;
        opts.rows_per_shard = 1024;
        SynthRowSource rows(TinyConfig());
        return StreamEncodeToShards(&rows, d, opts).status();
      });
  return dir.path();
}

// Streamed training with kGlobalShuffle vs the ordinary in-RAM TrainModel
// over the same contiguous splits: identical epoch order, identical
// metrics and weights, at 1/2/8 threads and every prefetch depth. Two
// inputs: the shared tiny dataset written as shards, and hash-encoded
// shards whose in-RAM twin is the reader's Materialize() (the encode →
// materialize path end to end).
TEST(DeterminismTest, StreamedTrainMatchesInRamTrainModelAcrossThreads) {
  PoolGuard guard;
  auto hashed_reader = StreamingReader::Open(HashedTinyShardDir());
  ASSERT_TRUE(hashed_reader.ok()) << hashed_reader.status().ToString();
  auto hashed = (*hashed_reader)->Materialize();
  ASSERT_TRUE(hashed.ok()) << hashed.status().ToString();
  const std::vector<std::pair<const EncodedDataset*, std::string>> inputs = {
      {&SharedTinyData().data, TinyShardDir()},
      {&*hashed, HashedTinyShardDir()}};

  for (const auto& [in_ram, dir] : inputs) {
    SCOPED_TRACE(dir);
    const Architecture arch = MixedArch(in_ram->num_pairs());
    const Splits splits = ContiguousSplits(in_ram->num_rows);
    Batch head;
    head.data = in_ram;
    head.rows = splits.train.data();
    head.size = 256;

    ThreadPool::SetGlobalThreads(1);
    FixedArchModel ref_model(*in_ram, arch, TinyHp(), "ref");
    TrainOptions topts;
    topts.epochs = 2;
    topts.batch_size = 512;
    topts.seed = 123;
    topts.patience = 1;
    const TrainSummary ref = TrainModel(&ref_model, *in_ram, splits, topts);
    const std::vector<float> ref_snap = SnapshotModel(&ref_model, head);

    auto reader = StreamingReader::Open(dir);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    for (const size_t threads : {1u, 2u, 8u}) {
      for (const size_t prefetch : {1u, 2u, 4u}) {
        ThreadPool::SetGlobalThreads(threads);
        FixedArchModel model((*reader)->meta(), arch, TinyHp(), "streamed");
        StreamTrainOptions so;
        so.epochs = 2;
        so.batch_size = 512;
        so.seed = 123;
        so.patience = 1;
        so.order = StreamingBatcher::Order::kGlobalShuffle;
        so.prefetch_batches = prefetch;
        auto got = TrainModelStreamed(&model, reader->get(), so);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ExpectSummariesBitIdentical(*got, ref);
        ExpectBitIdentical(SnapshotModel(&model, head), ref_snap, threads);
      }
    }
  }
}

// kWindowShuffle has no in-RAM TrainModel twin, so the reader arm at one
// thread and prefetch depth 1 is the reference: every thread count and
// prefetch depth must reproduce it bitwise. (Its row order is pinned by
// StreamingBatcherTest.WindowShuffleEpochCoversRangeOnce.)
TEST(DeterminismTest, WindowShuffleStreamedBitIdenticalAcrossThreadsAndPrefetch) {
  PoolGuard guard;
  const auto& p = SharedTinyData();
  const Architecture arch = MixedArch(p.data.num_pairs());
  auto reader = StreamingReader::Open(TinyShardDir());
  ASSERT_TRUE(reader.ok());
  StreamTrainOptions so;
  so.epochs = 2;
  so.batch_size = 256;
  so.seed = 321;
  so.patience = 1;
  so.order = StreamingBatcher::Order::kWindowShuffle;
  so.window_blocks = 3;
  so.prefetch_batches = 1;

  ThreadPool::SetGlobalThreads(1);
  FixedArchModel ref_model((*reader)->meta(), arch, TinyHp(), "ref");
  auto ref = TrainModelStreamed(&ref_model, reader->get(), so);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  const std::vector<float> ref_snap =
      SnapshotModel(&ref_model, HeadBatch(p, 256));

  for (const size_t threads : {1u, 2u, 8u}) {
    for (const size_t prefetch : {1u, 4u}) {
      ThreadPool::SetGlobalThreads(threads);
      FixedArchModel model((*reader)->meta(), arch, TinyHp(), "stream-arm");
      StreamTrainOptions run = so;
      run.prefetch_batches = prefetch;
      auto got = TrainModelStreamed(&model, reader->get(), run);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ExpectSummariesBitIdentical(*got, *ref);
      ExpectBitIdentical(SnapshotModel(&model, HeadBatch(p, 256)), ref_snap,
                         threads);
    }
  }
}

// Streamed evaluation must reproduce EvaluateModel over the same rows of
// the materialized dataset bitwise, and both must match the serial
// one-context reference, at every pool size. Batch 64 cuts the 2000 rows
// into 32 batches, so the parallel grid runs; the reader keeps one
// resident shard, so concurrent batches pin past the bound.
TEST(DeterminismTest, StreamedEvalMatchesInRamEvalAcrossThreads) {
  PoolGuard guard;
  const auto& p = SharedTinyData();
  FixedArchModel model(p.data, MixedArch(p.data.num_pairs()), TinyHp(),
                       "eval");
  StreamingReader::Options ro;
  ro.max_resident_shards = 1;
  auto reader = StreamingReader::Open(TinyShardDir(), ro);
  ASSERT_TRUE(reader.ok());
  const size_t begin = 4000;
  const size_t end = p.data.num_rows;
  std::vector<size_t> rows;
  for (size_t r = begin; r < end; ++r) rows.push_back(r);
  for (const size_t batch : {64u, 2048u}) {
    const EvalMetrics serial =
        testing::SerialEvaluate(model, p.data, rows, batch);
    for (const size_t threads : {1u, 2u, 8u}) {
      SCOPED_TRACE("batch " + std::to_string(batch) + ", threads " +
                   std::to_string(threads));
      ThreadPool::SetGlobalThreads(threads);
      const EvalMetrics in_ram = EvaluateModel(&model, p.data, rows, batch);
      auto streamed =
          EvaluateModelStreamed(&model, reader->get(), begin, end, batch);
      ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
      EXPECT_EQ(in_ram.auc, serial.auc);
      EXPECT_EQ(in_ram.logloss, serial.logloss);
      EXPECT_EQ(streamed->auc, serial.auc);
      EXPECT_EQ(streamed->logloss, serial.logloss);
    }
  }
}

void FlipPayloadByte(const std::string& path) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(static_cast<std::streamoff>(kShardHeaderBytes));
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ 0x10);
  f.seekp(static_cast<std::streamoff>(kShardHeaderBytes));
  f.write(&c, 1);
}

// A corrupt shard inside the evaluated range fails streamed evaluation —
// never metrics over the rows that did read — with the same Status at
// every pool size: the lowest failing batch's. Two shards are corrupt, so
// the lowest failing batch names a different file from the last. The
// first corrupt shard lies in the validation range, so TrainModelStreamed
// returns its Status instead of metrics.
TEST(StreamedEvalTest, CorruptShardFailsWithTheLowestBatchStatus) {
  PoolGuard guard;
  const auto& p = SharedTinyData();
  const size_t n = p.data.num_rows;
  const size_t rows_per_shard = 512;
  const Splits splits = ContiguousSplits(n);
  const size_t first_bad = splits.val.back() / rows_per_shard;
  const size_t last_bad = (n - 1) / rows_per_shard;
  ASSERT_GT(first_bad, splits.train.back() / rows_per_shard);
  ASSERT_GT(last_bad, first_bad);
  const std::string dir = testing::TempPath("corrupt_eval_shards");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ASSERT_TRUE(WriteShardedDataset(p.data, dir, rows_per_shard).ok());
  FlipPayloadByte(ShardPath(dir, first_bad));
  FlipPayloadByte(ShardPath(dir, last_bad));
  const std::string first_name = ShardFileName(first_bad);
  const std::string last_name = ShardFileName(last_bad);

  const Architecture arch = MixedArch(p.data.num_pairs());
  std::string pool1_status;
  for (const size_t threads : {1u, 8u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ThreadPool::SetGlobalThreads(threads);
    auto reader = StreamingReader::Open(dir);
    ASSERT_TRUE(reader.ok());
    FixedArchModel model((*reader)->meta(), arch, TinyHp(), "eval");
    auto m = EvaluateModelStreamed(&model, reader->get(), splits.val.front(),
                                   n, /*batch_size=*/64);
    ASSERT_FALSE(m.ok());
    const std::string st = m.status().ToString();
    EXPECT_NE(st.find(first_name), std::string::npos) << st;
    EXPECT_EQ(st.find(last_name), std::string::npos) << st;
    if (threads == 1) pool1_status = st;
    EXPECT_EQ(st, pool1_status);
  }

  auto reader = StreamingReader::Open(dir);
  ASSERT_TRUE(reader.ok());
  FixedArchModel model((*reader)->meta(), arch, TinyHp(), "train");
  StreamTrainOptions so;
  so.epochs = 1;
  so.batch_size = 512;
  auto got = TrainModelStreamed(&model, reader->get(), so);
  ASSERT_FALSE(got.ok());
  EXPECT_NE(got.status().ToString().find(first_name), std::string::npos)
      << got.status().ToString();
}

}  // namespace
}  // namespace optinter

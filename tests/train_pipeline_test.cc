// Tests for the pipelined training executor (src/train/pipeline_executor.h):
// epoch coverage, the steady-state zero-allocation contract of the
// phase-split TrainStep, workspace reuse across epochs, and
// RunReport::WriteEvery periodic flushing.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/fixed_arch_model.h"
#include "core/search_model.h"
#include "models/hyperparams.h"
#include "models/prepared_batch.h"
#include "nn/layers.h"
#include "obs/registry.h"
#include "obs/run_report.h"
#include "tensor/dispatch.h"
#include "test_data.h"
#include "train/pipeline_executor.h"
#include "train/trainer.h"

// --------------------------------------------------------------------------
// Global allocation counter. std::vector and Tensor go through
// operator new(size_t) (operator new[] forwards to it), so counting here
// catches every steady-state heap allocation the contract forbids. The
// aligned overloads are replaced too: Tensor storage and the kernel packing
// buffers allocate through AlignedAllocator (tensor/aligned.h), which calls
// operator new(size_t, align_val_t) — without these hooks the contract
// would silently stop covering every tensor buffer in the model. The
// std::nothrow_t forms are replaced as well, so every operator new this
// binary can reach pairs with the replaced operator delete: a temporary
// buffer (std::stable_sort, std::inplace_merge) is taken with nothrow new
// and returned through plain delete, which a sanitizer reports as an
// alloc/dealloc mismatch when only one side is replaced.
// --------------------------------------------------------------------------

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<size_t> g_alloc_events{0};
std::atomic<size_t> g_alloc_max_bytes{0};  // largest counted allocation

void* CountedAlloc(std::size_t size, std::size_t align) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_events.fetch_add(1, std::memory_order_relaxed);
    size_t seen = g_alloc_max_bytes.load(std::memory_order_relaxed);
    while (size > seen && !g_alloc_max_bytes.compare_exchange_weak(
                              seen, size, std::memory_order_relaxed)) {
    }
  }
  return align == 0 ? std::malloc(size)
                    : std::aligned_alloc(align, (size + align - 1) /
                                                    align * align);
}

void* CountedAllocOrThrow(std::size_t size, std::size_t align) {
  void* p = CountedAlloc(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return CountedAllocOrThrow(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAllocOrThrow(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size, 0);
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return CountedAlloc(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace optinter {
namespace {

using testing::HeadBatch;
using testing::PoolGuard;
using testing::SharedTinyData;

HyperParams TinyHp() {
  HyperParams hp = DefaultHyperParams("tiny");
  hp.seed = 77;
  return hp;
}

Architecture MixedArch(size_t num_pairs) {
  Architecture arch(num_pairs, InterMethod::kNaive);
  arch[0] = InterMethod::kMemorize;
  arch[1] = InterMethod::kFactorize;
  return arch;
}

// Allocation events across `steps` repetitions of model->TrainStep(batch)
// after `warmup` untracked repetitions.
size_t CountSteadyStateAllocs(CtrModel* model, const Batch& batch,
                              int warmup, int steps) {
  for (int i = 0; i < warmup; ++i) model->TrainStep(batch);
  g_alloc_events.store(0);
  g_count_allocs.store(true);
  for (int i = 0; i < steps; ++i) model->TrainStep(batch);
  g_count_allocs.store(false);
  return g_alloc_events.load();
}

// std::stable_sort takes a temporary buffer with nothrow new and frees it
// with plain delete; both must reach the counted allocator, or a sanitizer
// build aborts here with an alloc/dealloc mismatch.
TEST(CountedAllocatorTest, StableSortTemporaryBufferIsCountedAndFreed) {
  std::vector<std::pair<int, int>> v(4096);
  Rng rng(5);
  for (size_t i = 0; i < v.size(); ++i) {
    v[i] = {static_cast<int>(rng.UniformInt(16)), static_cast<int>(i)};
  }
  g_alloc_events.store(0);
  g_count_allocs.store(true);
  std::stable_sort(v.begin(), v.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  g_count_allocs.store(false);
  EXPECT_GE(g_alloc_events.load(), 1u) << "no temporary buffer was taken";
  for (size_t i = 1; i < v.size(); ++i) {
    ASSERT_TRUE(v[i - 1].first < v[i].first ||
                (v[i - 1].first == v[i].first &&
                 v[i - 1].second < v[i].second))
        << "not a stable sort at " << i;
  }
}

// --------------------------------------------------------------------------
// Zero-allocation steady state
// --------------------------------------------------------------------------

// After warmup every per-step buffer (prepared tables, scatter slots,
// activations, gradient partials) must be reused from capacity: a repeated
// identical batch performs zero heap allocations per TrainStep. Runs at one
// pool thread — the serial/inline execution path; the multi-thread fan-out
// allocates task objects by design.
TEST(TrainPipelineTest, FixedArchTrainStepSteadyStateZeroAlloc) {
  PoolGuard guard;
  ThreadPool::SetGlobalThreads(1);
  const auto& p = SharedTinyData();
  FixedArchModel model(p.data, MixedArch(p.data.num_pairs()), TinyHp(),
                       "alloc");
  const Batch batch = HeadBatch(p, 256);
  EXPECT_EQ(CountSteadyStateAllocs(&model, batch, /*warmup=*/3, /*steps=*/5),
            0u);
}

TEST(TrainPipelineTest, SearchModelTrainStepSteadyStateZeroAlloc) {
  PoolGuard guard;
  ThreadPool::SetGlobalThreads(1);
  const auto& p = SharedTinyData();
  const Batch batch = HeadBatch(p, 256);
  // The paper's {hp.factorize_fn} (empty) and the multi-operation set.
  const std::vector<std::vector<FactorizeFn>> candidate_sets = {
      {}, {FactorizeFn::kHadamard, FactorizeFn::kInnerProduct}};
  for (const std::vector<FactorizeFn>& fns : candidate_sets) {
    SearchModel model(p.data, TinyHp(), UpdateMode::kJoint, fns);
    EXPECT_EQ(
        CountSteadyStateAllocs(&model, batch, /*warmup=*/3, /*steps=*/5), 0u)
        << fns.size() + 2 << " candidates";
  }
}

// The tiny models above never reach the MLP-scale GEMM paths. A
// criteo_like first-layer Linear (batch 512, 688 → 128) does: the 2-D
// cell grid for the NT forward and NN input gradient, and the chunked
// GemmTN weight gradient. Its second Forward+Backward must allocate
// nothing. No buffer the first pass allocates (the GemmTN B panel pack
// included) may exceed what chunked GemmTN used to hold: 8 chunk partials
// of out × in floats plus one 64-row chunk's B pack.
TEST(TrainPipelineTest, MlpShapeLinearSteadyStateZeroAlloc) {
  PoolGuard guard;
  ThreadPool::SetGlobalThreads(1);
  const size_t kBatch = 512, kIn = 688, kOut = 128;
  Rng rng(31);
  Linear linear("mlp_shape", kIn, kOut, /*lr=*/0.01f, /*l2=*/0.0f, &rng);
  Tensor x({kBatch, kIn});
  Tensor dy({kBatch, kOut});
  for (size_t i = 0; i < x.size(); ++i) x.data()[i] = static_cast<float>(rng.Uniform(-1, 1));
  for (size_t i = 0; i < dy.size(); ++i) dy.data()[i] = static_cast<float>(rng.Uniform(-1, 1));
  Tensor y, dx;
  LinearWorkspace ws;
  const auto pass = [&] {
    linear.Forward(x, &y, &ws);
    linear.Backward(dy, &dx, ws);
  };

  g_alloc_max_bytes.store(0);
  g_count_allocs.store(true);
  pass();
  g_count_allocs.store(false);
  const size_t nr = ActiveKernels().gemm_nr;
  const size_t padded_in = (kIn + nr - 1) / nr * nr;
  const size_t old_tn_floats = 8 * kOut * kIn + kBatch / 8 * padded_in;
  EXPECT_LE(g_alloc_max_bytes.load(), old_tn_floats * sizeof(float));

  g_alloc_events.store(0);
  g_count_allocs.store(true);
  pass();
  g_count_allocs.store(false);
  EXPECT_EQ(g_alloc_events.load(), 0u);
}

// The executor's workspace-growth counter tells the same story at run
// scale: once capacities reach their high-water mark, later epochs must
// not grow the pooled workspaces. One full-split batch per epoch keeps the
// per-epoch row multiset (and therefore every capacity requirement)
// identical despite reshuffling — with smaller batches a reshuffle can
// legitimately raise a per-shard high-water mark.
TEST(TrainPipelineTest, WorkspaceStopsGrowingAfterWarmup) {
  PoolGuard guard;
  ThreadPool::SetGlobalThreads(2);
  const auto& p = SharedTinyData();
  FixedArchModel model(p.data, MixedArch(p.data.num_pairs()), TinyHp(),
                       "grow");
  Batcher batcher(&p.data, p.splits.train,
                  /*batch_size=*/p.splits.train.size(), /*seed=*/3);
  PipelinedTrainExecutor executor(&model);
  obs::Counter* growth = obs::MetricsRegistry::Global().GetCounter(
      "pipeline.workspace_growth_steps");
  batcher.StartEpoch();
  executor.RunEpoch(&batcher);  // warmup epoch: growth expected
  const uint64_t after_warmup = growth->Value();
  for (int e = 0; e < 3; ++e) {
    batcher.StartEpoch();
    executor.RunEpoch(&batcher);
  }
  EXPECT_EQ(growth->Value(), after_warmup);
  obs::Gauge* bytes =
      obs::MetricsRegistry::Global().GetGauge("pipeline.workspace_bytes");
  EXPECT_GT(bytes->Value(), 0.0);
}

// --------------------------------------------------------------------------
// Epoch coverage
// --------------------------------------------------------------------------

// The prefetching executor visits every row exactly once, in order.
TEST(TrainPipelineTest, UnfencedEpochCoversAllRows) {
  PoolGuard guard;
  ThreadPool::SetGlobalThreads(4);
  const auto& p = SharedTinyData();
  FixedArchModel model(p.data, MixedArch(p.data.num_pairs()), TinyHp(),
                       "cover");
  Batcher batcher(&p.data, p.splits.train, /*batch_size=*/512, /*seed=*/5);
  PipelinedTrainExecutor executor(&model);
  batcher.StartEpoch();
  const PipelinedTrainExecutor::EpochStats stats = executor.RunEpoch(&batcher);
  EXPECT_EQ(stats.rows, p.splits.train.size());
  EXPECT_EQ(stats.batches,
            (p.splits.train.size() + 511) / 512);
  EXPECT_GT(stats.loss_sum, 0.0);
}

// --------------------------------------------------------------------------
// RunReport::WriteEvery
// --------------------------------------------------------------------------

TEST(RunReportWriteEveryTest, NotArmedNeverWrites) {
  obs::RunReport report("idle");
  EXPECT_FALSE(report.MaybeWriteEvery());
}

TEST(RunReportWriteEveryTest, FlushesWhenIntervalElapsed) {
  const std::string path = testing::TempPath("periodic_report.json");
  std::remove(path.c_str());
  obs::RunReport report("periodic");
  report.WriteEvery(path, /*seconds=*/0.0);
  EXPECT_TRUE(report.MaybeWriteEvery());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string contents = buf.str();
  EXPECT_NE(contents.find("\"schema_version\""), std::string::npos);
  EXPECT_NE(contents.find("\"metrics\""), std::string::npos);
  EXPECT_NE(contents.find("\"spans\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(RunReportWriteEveryTest, RespectsInterval) {
  const std::string path = testing::TempPath("never_report.json");
  std::remove(path.c_str());
  obs::RunReport report("slow");
  report.WriteEvery(path, /*seconds=*/3600.0);
  EXPECT_FALSE(report.MaybeWriteEvery());
  std::ifstream in(path);
  EXPECT_FALSE(in.good());
}

// End-to-end: a report handed to TrainModel with a zero-second interval is
// flushed from inside the training loop.
TEST(RunReportWriteEveryTest, TrainerTicksPeriodicReport) {
  PoolGuard guard;
  ThreadPool::SetGlobalThreads(2);
  const auto& p = SharedTinyData();
  const std::string path = testing::TempPath("trainer_report.json");
  std::remove(path.c_str());
  obs::RunReport report("train");
  report.WriteEvery(path, /*seconds=*/0.0);
  FixedArchModel model(p.data, MixedArch(p.data.num_pairs()), TinyHp(),
                       "tick");
  TrainOptions opts;
  opts.epochs = 1;
  opts.batch_size = 1024;
  opts.patience = 0;
  opts.report = &report;
  TrainModel(&model, p.data, p.splits, opts);
  std::ifstream in(path);
  EXPECT_TRUE(in.good());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace optinter

// Tests for the quantized inference path and the runtime kernel dispatch
// layer:
//
//  * QuantizedTable round-trips: int8 per-row affine error bound
//    (≤ 1.5·scale: half-step rounding plus at most one step of edge
//    clamping), constant-row exactness, bf16 relative error, row-byte
//    accounting;
//  * int8 GEMM property sweep vs a plain integer/double reference over
//    the same odd-shape grid the fp32 GEMM tests use, plus exact
//    accumulator equality across every compiled-in dispatch backend (the
//    integer path is associative, so "close" would be a bug — it must be
//    EQUAL);
//  * dispatch selection: available backends are well-formed, the test
//    hook swaps tables, unknown names are rejected, and the dispatched
//    fp32 GEMMs agree across backends on exactly-representable inputs;
//  * 2-D chunk-grid determinism: tall-skinny GemmNN/NT are bitwise
//    identical at 1, 2, and 8 threads;
//  * QuantizeSnapshot: int8/bf16 models track the fp32 model's
//    probabilities, reject wrong model kinds, and refuse TrainStep.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "core/fixed_arch_model.h"
#include "nn/embedding.h"
#include "nn/quant_embedding.h"
#include "serve/quantized_model.h"
#include "serve/request.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "tensor/dispatch.h"
#include "tensor/int8.h"
#include "tensor/kernels.h"
#include "common/thread_pool.h"
#include "test_data.h"

namespace optinter {
namespace {

using serve::QuantizedFixedArchModel;
using serve::QuantizeSnapshot;
using testing::PoolGuard;
using testing::SharedTinyData;

// Restores auto dispatch selection when a test returns.
struct BackendGuard {
  ~BackendGuard() { SelectKernelBackendForTest("auto"); }
};

EmbeddingTable RandomTable(size_t vocab, size_t dim, uint64_t seed,
                           double stddev = 0.1) {
  EmbeddingTable t("t", vocab, dim, /*lr=*/0.01f, /*l2=*/0.0f);
  Rng rng(seed);
  t.Init(&rng, stddev);
  return t;
}

// ---------------------------------------------------------------------------
// QuantizedTable round-trips.
// ---------------------------------------------------------------------------

TEST(QuantizedTableTest, Int8RoundTripWithinPerRowBound) {
  const size_t vocab = 64, dim = 16;
  EmbeddingTable t = RandomTable(vocab, dim, 991);
  QuantizedTable q(t, QuantMode::kInt8);
  ASSERT_EQ(q.vocab_size(), vocab);
  ASSERT_EQ(q.dim(), dim);
  std::vector<float> out(dim);
  for (size_t r = 0; r < vocab; ++r) {
    const int32_t id = static_cast<int32_t>(r);
    q.DequantRow(id, out.data());
    const float* ref = t.Row(id);
    // Half a step of rounding plus at most one step lost to clamping the
    // zero-point at the range edge.
    const float bound = 1.5f * q.RowScale(id);
    for (size_t d = 0; d < dim; ++d) {
      ASSERT_NEAR(out[d], ref[d], bound) << "row " << r << " dim " << d;
    }
  }
}

TEST(QuantizedTableTest, Int8ConstantRowsAreExact) {
  EmbeddingTable t("t", 3, 8, 0.01f, 0.0f);  // zero-initialized
  for (size_t d = 0; d < 8; ++d) {
    t.MutableRow(1)[d] = 0.75f;
    t.MutableRow(2)[d] = -2.5f;
  }
  QuantizedTable q(t, QuantMode::kInt8);
  std::vector<float> out(8);
  q.DequantRow(0, out.data());
  for (float v : out) EXPECT_EQ(v, 0.0f);
  q.DequantRow(1, out.data());
  for (float v : out) EXPECT_FLOAT_EQ(v, 0.75f);
  q.DequantRow(2, out.data());
  for (float v : out) EXPECT_FLOAT_EQ(v, -2.5f);
}

TEST(QuantizedTableTest, Bf16RoundTripWithinRelativeBound) {
  const size_t vocab = 64, dim = 16;
  EmbeddingTable t = RandomTable(vocab, dim, 313);
  QuantizedTable q(t, QuantMode::kBf16);
  std::vector<float> out(dim);
  for (size_t r = 0; r < vocab; ++r) {
    const int32_t id = static_cast<int32_t>(r);
    q.DequantRow(id, out.data());
    const float* ref = t.Row(id);
    for (size_t d = 0; d < dim; ++d) {
      // bf16 keeps 8 mantissa bits (7 stored + implicit); the half-ULP
      // round-to-nearest error is ≤ 2^-8 relative.
      ASSERT_NEAR(out[d], ref[d],
                  std::fabs(ref[d]) * (1.0f / 256.0f) + 1e-30f)
          << "row " << r << " dim " << d;
    }
  }
}

TEST(QuantizedTableTest, RowBytesMatchScheme) {
  EmbeddingTable t = RandomTable(4, 16, 7);
  QuantizedTable q8(t, QuantMode::kInt8);
  QuantizedTable q16(t, QuantMode::kBf16);
  // int8: dim bytes of payload + fp32 scale + int8 zero-point.
  EXPECT_EQ(q8.RowBytes(), 16u + 4u + 1u);
  EXPECT_EQ(q16.RowBytes(), 32u);
  // fp32 is 64 bytes/row → the committed ≥3× (int8) and 2× (bf16)
  // footprint claims at dim 16.
  EXPECT_GE(64.0 / static_cast<double>(q8.RowBytes()), 3.0);
  EXPECT_EQ(64.0 / static_cast<double>(q16.RowBytes()), 2.0);
}

TEST(QuantizedTableTest, Bf16ConversionRoundsToNearestEven) {
  EXPECT_EQ(FloatToBf16(0.0f), 0u);
  EXPECT_EQ(FloatToBf16(1.0f), 0x3f80u);
  EXPECT_EQ(FloatToBf16(-2.0f), 0xc000u);
  // 1.0 + 2^-9 is exactly between bf16(1.0) and the next value up; ties
  // go to even (the 1.0 encoding has an even mantissa).
  EXPECT_EQ(FloatToBf16(1.0f + 1.0f / 512.0f), 0x3f80u);
}

// ---------------------------------------------------------------------------
// int8 GEMM property sweep + cross-backend exactness.
// ---------------------------------------------------------------------------

struct QuantGemmCase {
  size_t m, k, n;
};

std::vector<QuantGemmCase> QuantGemmCases() {
  std::vector<QuantGemmCase> cases;
  for (size_t m : {1, 3, 7, 17}) {
    for (size_t k : {1, 5, 17, 64, 129}) {
      for (size_t n : {1, 3, 16, 33}) cases.push_back({m, k, n});
    }
  }
  return cases;
}

TEST(Int8GemmTest, MatchesDequantizedReferenceOverShapeSweep) {
  std::mt19937 rng(20260808);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  for (const QuantGemmCase& gc : QuantGemmCases()) {
    std::vector<float> x(gc.m * gc.k), w(gc.n * gc.k), bias(gc.n);
    for (float& v : x) v = dist(rng);
    for (float& v : w) v = dist(rng);
    for (float& v : bias) v = dist(rng);

    std::vector<uint8_t> qa(gc.m * gc.k);
    std::vector<float> sa(gc.m);
    std::vector<int32_t> za(gc.m);
    QuantizeActivationRows(x.data(), gc.m, gc.k, qa.data(), sa.data(),
                           za.data());
    std::vector<int8_t> qw(gc.n * gc.k);
    std::vector<float> sw(gc.n);
    std::vector<int32_t> rowsum(gc.n);
    QuantizeWeightsPerRow(w.data(), gc.n, gc.k, qw.data(), sw.data(),
                          rowsum.data());

    std::vector<float> c(gc.m * gc.n);
    Int8GemmNT(qa.data(), sa.data(), za.data(), qw.data(), sw.data(),
               rowsum.data(), bias.data(), c.data(), gc.m, gc.k, gc.n);

    for (size_t i = 0; i < gc.m; ++i) {
      for (size_t j = 0; j < gc.n; ++j) {
        // Reference: dequantize every element and accumulate in double —
        // the quantized GEMM must match it to fp32 rounding, because both
        // compute the same integer sum before one float epilogue.
        double acc = 0.0;
        for (size_t p = 0; p < gc.k; ++p) {
          const double da =
              sa[i] * (static_cast<double>(qa[i * gc.k + p]) - za[i]);
          const double dw = sw[j] * static_cast<double>(qw[j * gc.k + p]);
          acc += da * dw;
        }
        acc += bias[j];
        ASSERT_NEAR(c[i * gc.n + j], acc,
                    1e-5 * (1.0 + std::sqrt(static_cast<double>(gc.k))))
            << "m=" << gc.m << " k=" << gc.k << " n=" << gc.n;
      }
    }
  }
}

TEST(Int8GemmTest, AccumulatorsExactlyEqualAcrossAllBackends) {
  std::mt19937 rng(4711);
  std::uniform_int_distribution<int> act(0, 127);
  std::uniform_int_distribution<int> wt(-127, 127);
  const std::vector<const KernelTable*> backends = AvailableKernelBackends();
  ASSERT_FALSE(backends.empty());
  for (const QuantGemmCase& gc : QuantGemmCases()) {
    std::vector<uint8_t> a(gc.m * gc.k);
    std::vector<int8_t> b(gc.n * gc.k);
    for (auto& v : a) v = static_cast<uint8_t>(act(rng));
    for (auto& v : b) v = static_cast<int8_t>(wt(rng));
    std::vector<int32_t> ref(gc.m * gc.n);
    backends[0]->int8_gemm_nt_acc(a.data(), b.data(), ref.data(), gc.m,
                                  gc.k, gc.n);
    // Sanity against a plain loop (int64 cannot overflow here).
    for (size_t i = 0; i < gc.m; ++i) {
      for (size_t j = 0; j < gc.n; ++j) {
        int64_t acc = 0;
        for (size_t p = 0; p < gc.k; ++p) {
          acc += static_cast<int64_t>(a[i * gc.k + p]) * b[j * gc.k + p];
        }
        ASSERT_EQ(ref[i * gc.n + j], acc);
      }
    }
    std::vector<int32_t> got(gc.m * gc.n);
    for (const KernelTable* table : backends) {
      got.assign(got.size(), -1);
      table->int8_gemm_nt_acc(a.data(), b.data(), got.data(), gc.m, gc.k,
                              gc.n);
      ASSERT_EQ(std::memcmp(got.data(), ref.data(),
                            got.size() * sizeof(int32_t)),
                0)
          << "backend " << table->name << " m=" << gc.m << " k=" << gc.k
          << " n=" << gc.n;
    }
  }
}

TEST(Int8GemmTest, DequantRowsBitwiseEqualAcrossAllBackends) {
  std::mt19937 rng(99);
  std::uniform_int_distribution<int> qv(-128, 127);
  const size_t dim = 37;  // odd: exercises every backend's tail handling
  std::vector<int8_t> q(dim);
  for (auto& v : q) v = static_cast<int8_t>(qv(rng));
  std::vector<uint16_t> qb(dim);
  for (auto& v : qb) v = static_cast<uint16_t>(rng() & 0x7fff);
  const std::vector<const KernelTable*> backends = AvailableKernelBackends();
  std::vector<float> ref_i8(dim), ref_bf(dim), out(dim);
  backends[0]->dequant_row_i8(q.data(), 0.0625f, -7, dim, ref_i8.data());
  backends[0]->dequant_row_bf16(qb.data(), dim, ref_bf.data());
  for (const KernelTable* table : backends) {
    table->dequant_row_i8(q.data(), 0.0625f, -7, dim, out.data());
    EXPECT_EQ(std::memcmp(out.data(), ref_i8.data(), dim * sizeof(float)),
              0)
        << table->name;
    table->dequant_row_bf16(qb.data(), dim, out.data());
    EXPECT_EQ(std::memcmp(out.data(), ref_bf.data(), dim * sizeof(float)),
              0)
        << table->name;
  }
}

// ---------------------------------------------------------------------------
// Dispatch selection.
// ---------------------------------------------------------------------------

TEST(DispatchTest, AvailableBackendsAreWellFormed) {
  const std::vector<const KernelTable*> backends = AvailableKernelBackends();
  ASSERT_FALSE(backends.empty());
  std::set<std::string> names;
  for (const KernelTable* t : backends) {
    ASSERT_NE(t, nullptr);
    EXPECT_TRUE(names.insert(t->name).second)
        << "duplicate backend " << t->name;
    EXPECT_NE(t->gemm_nn, nullptr);
    EXPECT_NE(t->gemm_nt, nullptr);
    EXPECT_NE(t->gemm_tn, nullptr);
    EXPECT_NE(t->sigmoid, nullptr);
    EXPECT_NE(t->int8_gemm_nt_acc, nullptr);
    EXPECT_NE(t->dequant_row_i8, nullptr);
    EXPECT_NE(t->dequant_row_bf16, nullptr);
  }
  // The active table is one of the available ones.
  EXPECT_TRUE(names.count(ActiveKernelBackend()));
}

TEST(DispatchTest, TestHookSwapsTablesAndRejectsUnknownNames) {
  BackendGuard guard;
  for (const KernelTable* t : AvailableKernelBackends()) {
    ASSERT_TRUE(SelectKernelBackendForTest(t->name));
    EXPECT_STREQ(ActiveKernelBackend(), t->name);
    EXPECT_EQ(&ActiveKernels(), t);
  }
  const std::string before = ActiveKernelBackend();
  EXPECT_FALSE(SelectKernelBackendForTest("not-a-backend"));
  EXPECT_EQ(ActiveKernelBackend(), before);  // unchanged on rejection
  EXPECT_TRUE(SelectKernelBackendForTest("auto"));
}

TEST(DispatchTest, GemmAgreesAcrossBackendsOnExactInputs) {
  // Small integer entries: every product and partial sum is exactly
  // representable, so accumulation order / FMA contraction cannot change
  // the result — all backends must agree EXACTLY.
  std::mt19937 rng(61);
  std::uniform_int_distribution<int> dist(-3, 3);
  const size_t m = 23, k = 40, n = 19;
  std::vector<float> a(m * k), bn(k * n), bt(n * k);
  for (auto& v : a) v = static_cast<float>(dist(rng));
  for (auto& v : bn) v = static_cast<float>(dist(rng));
  for (auto& v : bt) v = static_cast<float>(dist(rng));
  const std::vector<const KernelTable*> backends = AvailableKernelBackends();
  std::vector<float> ref_nn(m * n), ref_nt(m * n), out(m * n);
  backends[0]->gemm_nn(a.data(), bn.data(), ref_nn.data(), m, k, n, 1.0f,
                       0.0f);
  backends[0]->gemm_nt(a.data(), bt.data(), ref_nt.data(), m, k, n, 1.0f,
                       0.0f);
  for (const KernelTable* table : backends) {
    out.assign(out.size(), -1.0f);
    table->gemm_nn(a.data(), bn.data(), out.data(), m, k, n, 1.0f, 0.0f);
    EXPECT_EQ(std::memcmp(out.data(), ref_nn.data(),
                          out.size() * sizeof(float)),
              0)
        << "gemm_nn " << table->name;
    out.assign(out.size(), -1.0f);
    table->gemm_nt(a.data(), bt.data(), out.data(), m, k, n, 1.0f, 0.0f);
    EXPECT_EQ(std::memcmp(out.data(), ref_nt.data(),
                          out.size() * sizeof(float)),
              0)
        << "gemm_nt " << table->name;
  }
}

// ---------------------------------------------------------------------------
// 2-D chunk-grid determinism (tall-skinny shapes, satellite of the
// dispatch PR: the m×n grid must not change results with the thread
// count).
// ---------------------------------------------------------------------------

TEST(ChunkGridTest, TallSkinnyGemmBitIdenticalAcrossThreadCounts) {
  PoolGuard guard;
  std::mt19937 rng(20260807);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  // Tall-skinny: m huge, n a couple of panels, k past the packing cutoff.
  // m*k*n*2 > kParallelFlops so the parallel grid actually engages.
  const size_t m = 1024, k = 64, n = 48;
  std::vector<float> a(m * k), bn(k * n), bt(n * k);
  for (auto& v : a) v = dist(rng);
  for (auto& v : bn) v = dist(rng);
  for (auto& v : bt) v = dist(rng);

  ThreadPool::SetGlobalThreads(1);
  std::vector<float> ref_nn(m * n, 0.0f), ref_nt(m * n, 0.0f);
  GemmNN(a.data(), bn.data(), ref_nn.data(), m, k, n, 1.0f, 0.0f);
  GemmNT(a.data(), bt.data(), ref_nt.data(), m, k, n, 1.0f, 0.0f);

  for (size_t threads : {2u, 8u}) {
    ThreadPool::SetGlobalThreads(threads);
    std::vector<float> c(m * n, 0.0f);
    GemmNN(a.data(), bn.data(), c.data(), m, k, n, 1.0f, 0.0f);
    EXPECT_EQ(
        std::memcmp(c.data(), ref_nn.data(), c.size() * sizeof(float)), 0)
        << "GemmNN threads=" << threads;
    c.assign(c.size(), 0.0f);
    GemmNT(a.data(), bt.data(), c.data(), m, k, n, 1.0f, 0.0f);
    EXPECT_EQ(
        std::memcmp(c.data(), ref_nt.data(), c.size() * sizeof(float)), 0)
        << "GemmNT threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// QuantizeSnapshot + QuantizedFixedArchModel.
// ---------------------------------------------------------------------------

HyperParams QuantHp() {
  HyperParams hp = DefaultHyperParams("tiny");
  hp.seed = 1234;
  return hp;
}

std::shared_ptr<const CtrModel> TrainedFp32(int steps) {
  const auto& p = SharedTinyData();
  auto model = FixedArchModel::MakeOptInterM(p.data, QuantHp());
  Batch b = testing::HeadBatch(p, 128);
  for (int i = 0; i < steps; ++i) model->TrainStep(b);
  return std::shared_ptr<const CtrModel>(std::move(model));
}

TEST(QuantizeSnapshotTest, RejectsNullAndWrongModelKind) {
  std::shared_ptr<const CtrModel> out;
  EXPECT_EQ(QuantizeSnapshot(nullptr, QuantMode::kInt8, &out).code(),
            StatusCode::kInvalidArgument);

  class NotFixedArch : public CtrModel {
   public:
    std::string Name() const override { return "other"; }
    void PrepareBatch(const Batch&, PreparedBatch*) const override {}
    float ForwardBackward(const PreparedBatch&) override { return 0.0f; }
    void ApplyGrads() override {}
    void Predict(const Batch& b, std::vector<float>* probs,
                 ForwardContext*) const override {
      probs->assign(b.size, 0.5f);
    }
    size_t ParamCount() const override { return 0; }
  };
  EXPECT_EQ(QuantizeSnapshot(std::make_shared<NotFixedArch>(),
                             QuantMode::kInt8, &out)
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(QuantizeSnapshotTest, QuantizedModelsTrackFp32Probabilities) {
  const auto& p = SharedTinyData();
  std::shared_ptr<const CtrModel> fp32 = TrainedFp32(10);
  std::shared_ptr<const CtrModel> m8, m16;
  ASSERT_TRUE(QuantizeSnapshot(fp32, QuantMode::kInt8, &m8).ok());
  ASSERT_TRUE(QuantizeSnapshot(fp32, QuantMode::kBf16, &m16).ok());
  EXPECT_NE(m8->Name().find("int8"), std::string::npos);
  EXPECT_NE(m16->Name().find("bf16"), std::string::npos);

  Batch b;
  b.data = &p.data;
  b.rows = p.splits.test.data();
  b.size = std::min<size_t>(256, p.splits.test.size());
  ForwardContext ctx;
  std::vector<float> probs_fp32, probs_8, probs_16;
  fp32->Predict(b, &probs_fp32, &ctx);
  m8->Predict(b, &probs_8, &ctx);
  m16->Predict(b, &probs_16, &ctx);
  ASSERT_EQ(probs_8.size(), b.size);
  ASSERT_EQ(probs_16.size(), b.size);
  double max8 = 0.0, max16 = 0.0, sum8 = 0.0;
  for (size_t i = 0; i < b.size; ++i) {
    const double d8 = std::fabs(probs_8[i] - probs_fp32[i]);
    max8 = std::max(max8, d8);
    sum8 += d8;
    max16 = std::max<double>(max16, std::fabs(probs_16[i] - probs_fp32[i]));
  }
  // int8 carries embedding + activation + weight rounding, and the tiny
  // model's dim-4/8 embeddings make each quantization step relatively
  // coarse — individual rows can move visibly, but the bulk must track.
  EXPECT_LT(max8, 0.3);
  EXPECT_LT(sum8 / b.size, 0.03);
  // bf16 is only a mantissa truncation and must sit much closer.
  EXPECT_LT(max16, 0.01);
  EXPECT_GT(max8, 0.0);  // it IS a different numeric path
}

TEST(QuantizeSnapshotTest, FootprintShrinksAndParamCountIsSourced) {
  // Byte-count arithmetic below assumes remap-free tables: under a global
  // tiered override the shared id->row remap (vocab x 4 B, counted in
  // EmbeddingBytes but not in the backing-row-only Fp32EmbeddingBytes)
  // dominates at the tiny profile's dims and voids the comparisons.
  if (const char* bk = std::getenv("OPTINTER_EMBED_BACKEND");
      bk != nullptr && std::strcmp(bk, "tiered") == 0) {
    GTEST_SKIP() << "remap bytes dominate tiny-profile footprints";
  }
  std::shared_ptr<const CtrModel> fp32 = TrainedFp32(3);
  std::shared_ptr<const CtrModel> m8, m16;
  ASSERT_TRUE(QuantizeSnapshot(fp32, QuantMode::kInt8, &m8).ok());
  ASSERT_TRUE(QuantizeSnapshot(fp32, QuantMode::kBf16, &m16).ok());
  const auto* q8 = dynamic_cast<const QuantizedFixedArchModel*>(m8.get());
  const auto* q16 = dynamic_cast<const QuantizedFixedArchModel*>(m16.get());
  ASSERT_NE(q8, nullptr);
  ASSERT_NE(q16, nullptr);
  // NOTE: int8 is not asserted below bf16 — at the tiny profile's dim-4
  // cross tables the 5-byte per-row header makes an int8 row (9 B) cost
  // more than a bf16 row (8 B); the ≥3× int8 claim holds at serving dims
  // (see RowBytesMatchScheme and BENCH_quantized.json).
  EXPECT_LT(q8->EmbeddingBytes(), q8->Fp32EmbeddingBytes());
  EXPECT_LT(q16->EmbeddingBytes(), q16->Fp32EmbeddingBytes());
  EXPECT_EQ(q16->EmbeddingBytes() * 2, q16->Fp32EmbeddingBytes());
  EXPECT_EQ(m8->ParamCount(), fp32->ParamCount());
}

TEST(QuantizeSnapshotDeathTest, TrainStepRefusesToRun) {
  std::shared_ptr<const CtrModel> fp32 = TrainedFp32(1);
  std::shared_ptr<const CtrModel> m8;
  ASSERT_TRUE(QuantizeSnapshot(fp32, QuantMode::kInt8, &m8).ok());
  const auto& p = SharedTinyData();
  Batch b = testing::HeadBatch(p, 4);
  auto* mutable_model = const_cast<CtrModel*>(m8.get());
  EXPECT_DEATH(mutable_model->TrainStep(b), "inference-only");
}

// A batch whose dataset lacks the cross ids a memorizing model reads must
// die with the builder's name on every Predict path, never read out of
// bounds: fp32 and int8, batch 1 and batched.
TEST(QuantizeSnapshotDeathTest, PredictWithoutCrossIdsDiesOnEveryPath) {
  std::shared_ptr<const CtrModel> fp32 = TrainedFp32(1);
  std::shared_ptr<const CtrModel> m8;
  ASSERT_TRUE(QuantizeSnapshot(fp32, QuantMode::kInt8, &m8).ok());
  const auto& p = SharedTinyData();
  EncodedDataset no_cross = p.data;
  no_cross.cross_ids.clear();
  ForwardContext ctx;
  std::vector<float> probs;
  for (const CtrModel* model : {fp32.get(), m8.get()}) {
    for (size_t size : {1u, 7u}) {
      const Batch b{&no_cross, p.splits.train.data(), size};
      EXPECT_DEATH(model->Predict(b, &probs, &ctx),
                   "call BuildCrossFeatures first")
          << model->Name() << " at batch " << size;
    }
  }
}

// Publishing a bf16 view freezes its fp32 source, whose MLP the view runs
// over weights packed at that freeze: same bits as before the publish, at
// batch 1 and batched. An int8 view packs nothing and leaves it unfrozen.
TEST(QuantizeSnapshotTest, Bf16PublishFreezesSourceAndKeepsBits) {
  const auto& p = SharedTinyData();
  const auto fp32 =
      std::static_pointer_cast<const FixedArchModel>(TrainedFp32(5));
  std::shared_ptr<const CtrModel> m8, m16;
  ASSERT_TRUE(QuantizeSnapshot(fp32, QuantMode::kInt8, &m8).ok());
  ASSERT_TRUE(QuantizeSnapshot(fp32, QuantMode::kBf16, &m16).ok());
  const auto predict = [&](const CtrModel& model, size_t size) {
    Batch b;
    b.data = &p.data;
    b.rows = p.splits.test.data();
    b.size = size;
    ForwardContext ctx;
    std::vector<float> probs;
    model.Predict(b, &probs, &ctx);
    return probs;
  };
  const std::vector<float> b1 = predict(*m16, 1);
  const std::vector<float> b16 = predict(*m16, 16);

  serve::SnapshotSlot slot;
  ASSERT_TRUE(slot.Publish(m8).ok());
  EXPECT_FALSE(fp32->frozen());
  ASSERT_TRUE(slot.Publish(m16).ok());
  EXPECT_TRUE(m16->frozen());
  EXPECT_TRUE(fp32->frozen());
  EXPECT_NE(fp32->mlp_packs(), nullptr);
  EXPECT_EQ(predict(*m16, 1), b1);
  EXPECT_EQ(predict(*m16, 16), b16);
}

TEST(QuantizeSnapshotTest, ServesThroughPredictServer) {
  const auto& p = SharedTinyData();
  std::shared_ptr<const CtrModel> fp32 = TrainedFp32(5);
  std::shared_ptr<const CtrModel> m8;
  ASSERT_TRUE(QuantizeSnapshot(fp32, QuantMode::kInt8, &m8).ok());

  serve::PredictServer server(p.data);
  ASSERT_TRUE(server.Deploy(m8).ok());
  // PredictNow through the server must equal a direct Predict on the
  // quantized model bitwise (same snapshot, same batch-1 path contract).
  Batch b;
  b.data = &p.data;
  b.rows = p.splits.test.data();
  b.size = 16;
  ForwardContext ctx;
  std::vector<float> direct;
  m8->Predict(b, &direct, &ctx);
  for (size_t k = 0; k < b.size; ++k) {
    auto r =
        server.PredictNow(serve::RequestFromRow(p.data, p.splits.test[k]));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, direct[k]) << "row " << k;
  }
}

}  // namespace
}  // namespace optinter

// Tests for the SIMD abstraction (tensor/simd.h), the aligned tensor
// storage (tensor/aligned.h), and the packed GEMM layer (tensor/kernels.cc):
//
//  * lane-op sanity and the fixed ReduceAdd combination order,
//  * polynomial Exp / Sigmoid accuracy against libm (and bitwise equality
//    with SigmoidScalar on the scalar backend, where the lane function IS
//    the scalar function),
//  * randomized property tests comparing GemmNN/NT/TN against the kept
//    naive references over odd shapes m,k,n ∈ {1,3,7,17,64,129} crossed
//    with alpha/beta edge cases — every packed-path corner (partial
//    micro-tiles, partial panels, KC blocking, the small-shape fallbacks)
//    is inside this grid,
//  * bitwise oracles on every available dispatch backend: GemmNT (whose
//    weight pack is a blocked in-register transpose) must equal GemmNN on
//    the materialized transpose, and every output row must equal the same
//    row computed alone (the row-exact micro-tile contract serving relies
//    on),
//  * 64-byte alignment of Tensor storage.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <vector>

#include "tensor/aligned.h"
#include "tensor/dispatch.h"
#include "tensor/kernels.h"
#include "tensor/simd.h"
#include "tensor/tensor.h"

namespace optinter {
namespace {

constexpr size_t kL = simd::kLanes;

std::vector<float> RandomVec(size_t n, std::mt19937* rng) {
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  std::vector<float> v(n);
  for (float& x : v) x = dist(*rng);
  return v;
}

// ---------------------------------------------------------------------------
// Lane ops.
// ---------------------------------------------------------------------------

TEST(SimdTest, BackendReportsCoherentConfig) {
  EXPECT_STREQ(SimdBackendName(), simd::kBackendName);
  EXPECT_GE(kL, 1u);
  EXPECT_EQ(kL & (kL - 1), 0u) << "lane count must be a power of two";
}

TEST(SimdTest, LaneArithmeticMatchesScalar) {
  std::mt19937 rng(123);
  const std::vector<float> a = RandomVec(kL, &rng);
  const std::vector<float> b = RandomVec(kL, &rng);
  const std::vector<float> c = RandomVec(kL, &rng);
  float out[simd::kLanes];

  simd::StoreU(out, simd::Add(simd::LoadU(a.data()), simd::LoadU(b.data())));
  for (size_t i = 0; i < kL; ++i) EXPECT_EQ(out[i], a[i] + b[i]);

  simd::StoreU(out, simd::Sub(simd::LoadU(a.data()), simd::LoadU(b.data())));
  for (size_t i = 0; i < kL; ++i) EXPECT_EQ(out[i], a[i] - b[i]);

  simd::StoreU(out, simd::Mul(simd::LoadU(a.data()), simd::LoadU(b.data())));
  for (size_t i = 0; i < kL; ++i) EXPECT_EQ(out[i], a[i] * b[i]);

  simd::StoreU(out, simd::Div(simd::LoadU(a.data()), simd::LoadU(b.data())));
  for (size_t i = 0; i < kL; ++i) EXPECT_EQ(out[i], a[i] / b[i]);

  simd::StoreU(out, simd::MulAdd(simd::LoadU(a.data()), simd::LoadU(b.data()),
                                 simd::LoadU(c.data())));
  for (size_t i = 0; i < kL; ++i) {
    EXPECT_EQ(out[i], simd::MulAddScalar(a[i], b[i], c[i]))
        << "vector MulAdd and MulAddScalar must round identically — the "
           "chunk-invariance contract depends on it";
  }

  simd::StoreU(out, simd::Abs(simd::LoadU(a.data())));
  for (size_t i = 0; i < kL; ++i) EXPECT_EQ(out[i], std::fabs(a[i]));

  simd::StoreU(out, simd::Sqrt(simd::Abs(simd::LoadU(a.data()))));
  for (size_t i = 0; i < kL; ++i) {
    EXPECT_EQ(out[i], std::sqrt(std::fabs(a[i])))
        << "Sqrt must be correctly rounded (== std::sqrt) on every backend";
  }
}

TEST(SimdTest, MaskSelectAndMax) {
  std::mt19937 rng(77);
  const std::vector<float> a = RandomVec(kL, &rng);
  float out[simd::kLanes];
  const simd::VecF zero = simd::Zero();
  const simd::VecF one = simd::Set1(1.0f);
  const simd::VecF av = simd::LoadU(a.data());

  simd::StoreU(out, simd::Select(simd::GtMask(av, zero), av, zero));
  for (size_t i = 0; i < kL; ++i) {
    EXPECT_EQ(out[i], a[i] > 0.0f ? a[i] : 0.0f);
  }
  simd::StoreU(out, simd::And(simd::GtMask(av, zero), one));
  for (size_t i = 0; i < kL; ++i) {
    EXPECT_EQ(out[i], a[i] > 0.0f ? 1.0f : 0.0f);
  }
  simd::StoreU(out, simd::Max(av, zero));
  for (size_t i = 0; i < kL; ++i) {
    EXPECT_EQ(out[i], a[i] > 0.0f ? a[i] : 0.0f);
  }
  simd::StoreU(out, simd::Min(av, zero));
  for (size_t i = 0; i < kL; ++i) {
    EXPECT_EQ(out[i], a[i] < 0.0f ? a[i] : 0.0f);
  }
}

TEST(SimdTest, ReduceAddIsExactForRepresentableSums) {
  // Small integers sum exactly in float, so any lane order gives the same
  // answer — this checks ReduceAdd actually adds every lane exactly once.
  float lanes[simd::kLanes];
  float expect = 0.0f;
  for (size_t i = 0; i < kL; ++i) {
    lanes[i] = static_cast<float>(i + 1);
    expect += lanes[i];
  }
  EXPECT_EQ(simd::ReduceAdd(simd::LoadU(lanes)), expect);
}

TEST(SimdTest, ReduceAddIsDeterministic) {
  // Same vector reduced twice must give identical bits (the fixed tree is
  // what makes Dot/Sum deterministic per backend).
  std::mt19937 rng(9);
  const std::vector<float> a = RandomVec(kL, &rng);
  const float r1 = simd::ReduceAdd(simd::LoadU(a.data()));
  const float r2 = simd::ReduceAdd(simd::LoadU(a.data()));
  EXPECT_EQ(std::memcmp(&r1, &r2, sizeof(float)), 0);
}

// ---------------------------------------------------------------------------
// Exp / Sigmoid.
// ---------------------------------------------------------------------------

TEST(SimdTest, ExpMatchesLibmWithinTolerance) {
  // The Cephes polynomial is good to ~2 ulp over the clamped range; check
  // a dense sweep including negatives, zero, and the clamp edges.
  for (float x = -87.0f; x <= 87.0f; x += 0.37f) {
    float in[simd::kLanes];
    float out[simd::kLanes];
    for (size_t i = 0; i < kL; ++i) in[i] = x;
    simd::StoreU(out, simd::Exp(simd::LoadU(in)));
    const double expect = std::exp(static_cast<double>(x));
    for (size_t i = 0; i < kL; ++i) {
      EXPECT_NEAR(out[i] / expect, 1.0, 1e-6) << "x=" << x;
    }
  }
}

TEST(SimdTest, ExpExtremesSaturateWithoutNan) {
  // Large positive inputs overflow to +inf (exactly like std::exp on
  // float); the input clamp exists so the polynomial's integer exponent
  // math never wraps into NaN territory. Large negative inputs underflow
  // toward zero.
  float in[simd::kLanes];
  float out[simd::kLanes];
  for (size_t i = 0; i < kL; ++i) in[i] = 500.0f;
  simd::StoreU(out, simd::Exp(simd::LoadU(in)));
  for (size_t i = 0; i < kL; ++i) {
    EXPECT_FALSE(std::isnan(out[i]));
    EXPECT_GT(out[i], 1e38f);
  }
  for (size_t i = 0; i < kL; ++i) in[i] = -500.0f;
  simd::StoreU(out, simd::Exp(simd::LoadU(in)));
  for (size_t i = 0; i < kL; ++i) {
    EXPECT_GE(out[i], 0.0f);
    EXPECT_LT(out[i], 1e-37f);
  }
}

TEST(SimdTest, SigmoidMatchesScalarReference) {
  for (float z = -30.0f; z <= 30.0f; z += 0.11f) {
    float in[simd::kLanes];
    float out[simd::kLanes];
    for (size_t i = 0; i < kL; ++i) in[i] = z;
    simd::StoreU(out, simd::Sigmoid(simd::LoadU(in)));
    const float expect = SigmoidScalar(z);
    for (size_t i = 0; i < kL; ++i) {
      EXPECT_NEAR(out[i], expect, 1e-6f) << "z=" << z;
      if (kL == 1) {
        // On the scalar backend the lane function IS SigmoidScalar.
        EXPECT_EQ(std::memcmp(&out[i], &expect, sizeof(float)), 0);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Aligned storage.
// ---------------------------------------------------------------------------

TEST(AlignedStorageTest, TensorDataIs64ByteAligned) {
  // Many sizes, including ones that stress small-allocation paths.
  for (size_t n : {1u, 3u, 17u, 64u, 129u, 1000u, 4096u}) {
    Tensor t({n});
    EXPECT_TRUE(IsTensorAligned(t.data())) << "n=" << n;
    Tensor m({n, 7u});
    EXPECT_TRUE(IsTensorAligned(m.data())) << "n=" << n;
  }
}

TEST(AlignedStorageTest, AlignedVectorKeepsAlignmentAcrossGrowth) {
  AlignedVector<float> v;
  for (size_t n = 1; n < 5000; n = n * 3 + 1) {
    v.resize(n);
    EXPECT_TRUE(IsTensorAligned(v.data())) << "n=" << n;
  }
}

// ---------------------------------------------------------------------------
// Randomized GEMM property tests vs the naive references.
// ---------------------------------------------------------------------------

struct GemmCase {
  size_t m, k, n;
  float alpha, beta;
};

// Odd shapes hit every packed-path corner: partial micro-tiles (m % kMR),
// partial panels (n % kNR), short reductions, and the small-shape
// fallbacks. alpha/beta cover the identity, scaling, and overwrite edges.
std::vector<GemmCase> GemmCases() {
  const size_t dims[] = {1, 3, 7, 17, 64, 129};
  const float alphas[] = {1.0f, 0.5f, 0.0f};
  const float betas[] = {0.0f, 1.0f, -0.25f};
  std::vector<GemmCase> cases;
  size_t idx = 0;
  for (size_t m : dims) {
    for (size_t k : dims) {
      for (size_t n : dims) {
        // Cycle through the alpha/beta grid rather than crossing it fully —
        // every (alpha, beta) pair still appears many times across shapes.
        const float alpha = alphas[idx % 3];
        const float beta = betas[(idx / 3) % 3];
        ++idx;
        cases.push_back({m, k, n, alpha, beta});
      }
    }
  }
  // Pin the full alpha/beta cross on one packed shape and one fallback
  // shape so no pair is covered only by coincidence.
  for (float alpha : alphas) {
    for (float beta : betas) {
      cases.push_back({17, 64, 17, alpha, beta});
      cases.push_back({3, 7, 3, alpha, beta});
    }
  }
  return cases;
}

using GemmFn = void (*)(const float*, const float*, float*, size_t, size_t,
                        size_t, float, float);

void RunGemmProperty(GemmFn fn, GemmFn ref, bool b_transposed) {
  std::mt19937 rng(20260806);
  for (const GemmCase& gc : GemmCases()) {
    const size_t out_rows = gc.m;  // NN/NT write [m×n]; TN is passed m=k.
    const std::vector<float> a = RandomVec(gc.m * gc.k, &rng);
    const std::vector<float> b = RandomVec(
        b_transposed ? gc.n * gc.k : gc.k * gc.n, &rng);
    std::vector<float> c = RandomVec(out_rows * gc.n, &rng);
    std::vector<float> c_ref = c;
    fn(a.data(), b.data(), c.data(), gc.m, gc.k, gc.n, gc.alpha, gc.beta);
    ref(a.data(), b.data(), c_ref.data(), gc.m, gc.k, gc.n, gc.alpha,
        gc.beta);
    // Accumulation-order differences grow with the reduction depth.
    const float tol =
        1e-4f * (1.0f + std::sqrt(static_cast<float>(gc.k + gc.m)));
    for (size_t i = 0; i < c.size(); ++i) {
      ASSERT_NEAR(c[i], c_ref[i], tol)
          << "m=" << gc.m << " k=" << gc.k << " n=" << gc.n
          << " alpha=" << gc.alpha << " beta=" << gc.beta << " i=" << i;
    }
  }
}

TEST(GemmPropertyTest, GemmNNMatchesReference) {
  RunGemmProperty(&GemmNN, &internal::GemmNNRef, /*b_transposed=*/false);
}

TEST(GemmPropertyTest, GemmNTMatchesReference) {
  RunGemmProperty(&GemmNT, &internal::GemmNTRef, /*b_transposed=*/true);
}

TEST(GemmPropertyTest, GemmTNMatchesReference) {
  // TN writes C[k×n] and reduces over m: reuse the harness by noting its
  // (m, k) are the GEMM's (reduction, out_rows)... the shapes are already
  // symmetric in the case grid, so call directly with the TN contract.
  std::mt19937 rng(4242);
  for (const GemmCase& gc : GemmCases()) {
    const std::vector<float> a = RandomVec(gc.m * gc.k, &rng);
    const std::vector<float> b = RandomVec(gc.m * gc.n, &rng);
    std::vector<float> c = RandomVec(gc.k * gc.n, &rng);
    std::vector<float> c_ref = c;
    GemmTN(a.data(), b.data(), c.data(), gc.m, gc.k, gc.n, gc.alpha,
           gc.beta);
    internal::GemmTNRef(a.data(), b.data(), c_ref.data(), gc.m, gc.k, gc.n,
                        gc.alpha, gc.beta);
    const float tol =
        1e-4f * (1.0f + std::sqrt(static_cast<float>(gc.m + gc.k)));
    for (size_t i = 0; i < c.size(); ++i) {
      ASSERT_NEAR(c[i], c_ref[i], tol)
          << "m=" << gc.m << " k=" << gc.k << " n=" << gc.n
          << " alpha=" << gc.alpha << " beta=" << gc.beta << " i=" << i;
    }
  }
}

TEST(GemmPropertyTest, RepeatedCallsAreBitIdentical) {
  // Same inputs, same build → same bits, including across the packed
  // path's thread_local buffer reuse.
  std::mt19937 rng(5150);
  const size_t m = 129, k = 64, n = 129;
  const std::vector<float> a = RandomVec(m * k, &rng);
  const std::vector<float> b = RandomVec(k * n, &rng);
  std::vector<float> c1(m * n, 0.0f);
  std::vector<float> c2(m * n, 0.0f);
  GemmNN(a.data(), b.data(), c1.data(), m, k, n, 1.0f, 0.0f);
  GemmNN(a.data(), b.data(), c2.data(), m, k, n, 1.0f, 0.0f);
  EXPECT_EQ(std::memcmp(c1.data(), c2.data(), c1.size() * sizeof(float)), 0);
}

// ---------------------------------------------------------------------------
// Bitwise oracles, run under every dispatch backend this host supports.
// ---------------------------------------------------------------------------

// Restores auto dispatch selection when a test returns.
struct BackendGuard {
  ~BackendGuard() { SelectKernelBackendForTest("auto"); }
};

bool BitEqual(const std::vector<float>& x, const std::vector<float>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

// The transposing B pack must write the same panels as the plain pack of
// the materialized transpose; past the pack both calls run the same
// micro-kernels, so any transpose-tile, k-tail or partial-panel bug shows
// up as a bit difference. Every shape here takes the packed path
// (n >= gemm_nr, k >= 8); m reaches the parallel cell grid at 64.
TEST(GemmBitwiseTest, GemmNTEqualsGemmNNOnMaterializedTranspose) {
  BackendGuard guard;
  std::mt19937 rng(20261017);
  for (const KernelTable* table : AvailableKernelBackends()) {
    ASSERT_TRUE(SelectKernelBackendForTest(table->name)) << table->name;
    const size_t mr = table->gemm_mr, nr = table->gemm_nr;
    size_t idx = 0;
    for (size_t k : {8, 15, 16, 17, 255, 256, 257, 688}) {
      for (size_t n : {nr, nr + 1, 2 * nr, size_t{129}}) {
        for (size_t m : {size_t{1}, size_t{2}, mr - 1, mr, mr + 1,
                         size_t{64}}) {
          const float alpha = (idx % 2 == 0) ? 1.0f : 0.5f;
          const float beta = (idx / 2 % 2 == 0) ? 0.0f : 1.0f;
          ++idx;
          const std::vector<float> a = RandomVec(m * k, &rng);
          const std::vector<float> bt = RandomVec(n * k, &rng);
          std::vector<float> b(k * n);
          for (size_t j = 0; j < n; ++j) {
            for (size_t p = 0; p < k; ++p) b[p * n + j] = bt[j * k + p];
          }
          std::vector<float> c_nt = RandomVec(m * n, &rng);
          std::vector<float> c_nn = c_nt;
          GemmNT(a.data(), bt.data(), c_nt.data(), m, k, n, alpha, beta);
          GemmNN(a.data(), b.data(), c_nn.data(), m, k, n, alpha, beta);
          ASSERT_TRUE(BitEqual(c_nt, c_nn))
              << table->name << " m=" << m << " k=" << k << " n=" << n
              << " alpha=" << alpha << " beta=" << beta;
        }
      }
    }
  }
}

// Each C row is its own ascending-p accumulation chain, whatever rows
// share its register tile: a row of an m-row call must equal that row
// computed alone at m=1. Micro-batched Submit answers equal PredictNow
// answers because of this. Covers full and partial panels, one and three
// kKC reduction blocks, and the unpacked fallback (n=3).
TEST(GemmBitwiseTest, RowsMatchSingleRowCallsOnEveryBackend) {
  BackendGuard guard;
  std::mt19937 rng(7);
  struct Shape {
    size_t k, n;
  };
  const Shape shapes[] = {{688, 128}, {688, 129}, {40, 33}, {24, 3}};
  for (const KernelTable* table : AvailableKernelBackends()) {
    ASSERT_TRUE(SelectKernelBackendForTest(table->name)) << table->name;
    for (const Shape& sh : shapes) {
      const size_t k = sh.k, n = sh.n;
      const std::vector<float> bt = RandomVec(n * k, &rng);
      const std::vector<float> b = RandomVec(k * n, &rng);
      for (size_t m = 1; m <= 2 * table->gemm_mr + 1; ++m) {
        const std::vector<float> a = RandomVec(m * k, &rng);
        std::vector<float> c_nt(m * n), c_nn(m * n);
        GemmNT(a.data(), bt.data(), c_nt.data(), m, k, n, 1.0f, 0.0f);
        GemmNN(a.data(), b.data(), c_nn.data(), m, k, n, 1.0f, 0.0f);
        std::vector<float> row(n);
        for (size_t i = 0; i < m; ++i) {
          GemmNT(a.data() + i * k, bt.data(), row.data(), 1, k, n, 1.0f,
                 0.0f);
          ASSERT_EQ(std::memcmp(row.data(), c_nt.data() + i * n,
                                n * sizeof(float)),
                    0)
              << table->name << " GemmNT m=" << m << " row=" << i
              << " k=" << k << " n=" << n;
          GemmNN(a.data() + i * k, b.data(), row.data(), 1, k, n, 1.0f,
                 0.0f);
          ASSERT_EQ(std::memcmp(row.data(), c_nn.data() + i * n,
                                n * sizeof(float)),
                    0)
              << table->name << " GemmNN m=" << m << " row=" << i
              << " k=" << k << " n=" << n;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Vectorized elementwise kernels vs simple references.
// ---------------------------------------------------------------------------

TEST(SimdKernelsTest, DotMatchesLongDoubleReference) {
  std::mt19937 rng(31);
  for (size_t n : {0u, 1u, 3u, 17u, 64u, 129u, 1000u}) {
    const std::vector<float> x = RandomVec(n, &rng);
    const std::vector<float> y = RandomVec(n, &rng);
    double expect = 0.0;
    for (size_t i = 0; i < n; ++i) {
      expect += static_cast<double>(x[i]) * static_cast<double>(y[i]);
    }
    EXPECT_NEAR(Dot(n, x.data(), y.data()), expect,
                1e-5 * (1.0 + std::sqrt(static_cast<double>(n))))
        << "n=" << n;
  }
}

TEST(SimdKernelsTest, AxpyScaleHadamardSumMatchReferences) {
  std::mt19937 rng(32);
  for (size_t n : {1u, 3u, 17u, 129u, 1000u}) {
    const std::vector<float> x = RandomVec(n, &rng);
    std::vector<float> y = RandomVec(n, &rng);
    std::vector<float> y_ref = y;
    Axpy(n, 0.77f, x.data(), y.data());
    for (size_t i = 0; i < n; ++i) {
      y_ref[i] = simd::MulAddScalar(0.77f, x[i], y_ref[i]);
    }
    for (size_t i = 0; i < n; ++i) EXPECT_EQ(y[i], y_ref[i]) << i;

    std::vector<float> s = x;
    Scale(n, -1.5f, s.data());
    for (size_t i = 0; i < n; ++i) EXPECT_EQ(s[i], -1.5f * x[i]) << i;

    std::vector<float> h(n);
    Hadamard(n, x.data(), y.data(), h.data());
    for (size_t i = 0; i < n; ++i) EXPECT_EQ(h[i], x[i] * y[i]) << i;

    std::vector<float> ha = y;
    HadamardAccum(n, x.data(), s.data(), ha.data());
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(ha[i], simd::MulAddScalar(x[i], s[i], y[i])) << i;
    }

    double expect = 0.0;
    for (size_t i = 0; i < n; ++i) expect += static_cast<double>(x[i]);
    EXPECT_NEAR(Sum(n, x.data()), expect,
                1e-5 * (1.0 + std::sqrt(static_cast<double>(n))))
        << "n=" << n;
  }
}

}  // namespace
}  // namespace optinter

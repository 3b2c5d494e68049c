#include "tensor/tensor.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "tensor/kernels.h"

namespace optinter {
namespace {

TEST(TensorTest, ZeroInitialized) {
  Tensor t({3, 4});
  EXPECT_EQ(t.size(), 12u);
  for (size_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(TensorTest, ShapeAccessors) {
  Tensor t({2, 5});
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 5u);
  EXPECT_EQ(t.ndim(), 2u);
  EXPECT_EQ(t.ShapeString(), "[2, 5]");
}

TEST(TensorTest, RowPointerArithmetic) {
  Tensor t({3, 2});
  t.at(1, 0) = 7.0f;
  t.at(1, 1) = 8.0f;
  EXPECT_EQ(t.row(1)[0], 7.0f);
  EXPECT_EQ(t.row(1)[1], 8.0f);
}

TEST(TensorTest, ReshapePreservesData) {
  Tensor t({2, 3});
  for (size_t i = 0; i < 6; ++i) t[i] = static_cast<float>(i);
  t.Reshape({3, 2});
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.at(2, 1), 5.0f);
}

TEST(TensorTest, FillAndZero) {
  Tensor t({4});
  t.Fill(2.5f);
  EXPECT_EQ(t[3], 2.5f);
  t.Zero();
  EXPECT_EQ(t[0], 0.0f);
}

TEST(TensorTest, ResizeForOverwriteKeepsBytesResizeZeroes) {
  Tensor t({4, 8});
  t.Fill(7.0f);
  const float* buf = t.data();
  // Shrinking and regrowing within capacity writes nothing and keeps the
  // buffer: the old bytes are still there.
  t.ResizeForOverwrite({2, 3});
  EXPECT_EQ(t.size(), 6u);
  EXPECT_EQ(t.cols(), 3u);
  t.ResizeForOverwrite({3, 10});
  EXPECT_EQ(t.data(), buf);
  for (size_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], 7.0f) << i;
  // Resize keeps its zero-fill contract.
  t.Resize({3, 10});
  for (size_t i = 0; i < t.size(); ++i) EXPECT_EQ(t[i], 0.0f) << i;
}

TEST(KernelsTest, GemmNNSmall) {
  // [1 2; 3 4] * [5 6; 7 8] = [19 22; 43 50]
  const float a[] = {1, 2, 3, 4};
  const float b[] = {5, 6, 7, 8};
  float c[4] = {};
  GemmNN(a, b, c, 2, 2, 2);
  EXPECT_FLOAT_EQ(c[0], 19.0f);
  EXPECT_FLOAT_EQ(c[1], 22.0f);
  EXPECT_FLOAT_EQ(c[2], 43.0f);
  EXPECT_FLOAT_EQ(c[3], 50.0f);
}

TEST(KernelsTest, GemmNTMatchesManual) {
  // A [2×3], B [2×3] (interpreted as [n×k] with n=2): C = A Bᵀ [2×2].
  const float a[] = {1, 2, 3, 4, 5, 6};
  const float b[] = {1, 0, 1, 0, 1, 0};
  float c[4] = {};
  GemmNT(a, b, c, 2, 3, 2);
  EXPECT_FLOAT_EQ(c[0], 4.0f);   // 1+3
  EXPECT_FLOAT_EQ(c[1], 2.0f);   // 2
  EXPECT_FLOAT_EQ(c[2], 10.0f);  // 4+6
  EXPECT_FLOAT_EQ(c[3], 5.0f);
}

TEST(KernelsTest, GemmTNMatchesManual) {
  // A [2×2], B [2×2]: C = Aᵀ B.
  const float a[] = {1, 2, 3, 4};
  const float b[] = {5, 6, 7, 8};
  float c[4] = {};
  GemmTN(a, b, c, 2, 2, 2);
  // Aᵀ = [1 3; 2 4]; C = [1*5+3*7, 1*6+3*8; 2*5+4*7, 2*6+4*8]
  EXPECT_FLOAT_EQ(c[0], 26.0f);
  EXPECT_FLOAT_EQ(c[1], 30.0f);
  EXPECT_FLOAT_EQ(c[2], 38.0f);
  EXPECT_FLOAT_EQ(c[3], 44.0f);
}

TEST(KernelsTest, GemmAccumulateBeta) {
  const float a[] = {1, 1};
  const float b[] = {2, 2};
  float c[1] = {10};
  GemmNN(a, b, c, 1, 2, 1, /*alpha=*/1.0f, /*beta=*/1.0f);
  EXPECT_FLOAT_EQ(c[0], 14.0f);
}

TEST(KernelsTest, LargeGemmConsistentWithSerial) {
  // Exceed the parallel threshold and compare against a serial reference.
  const size_t m = 64, k = 96, n = 512;
  std::vector<float> a(m * k), b(k * n), c(m * n), ref(m * n, 0.0f);
  for (size_t i = 0; i < a.size(); ++i) a[i] = static_cast<float>(i % 7) - 3;
  for (size_t i = 0; i < b.size(); ++i) b[i] = static_cast<float>(i % 5) - 2;
  for (size_t i = 0; i < m; ++i) {
    for (size_t p = 0; p < k; ++p) {
      for (size_t j = 0; j < n; ++j) {
        ref[i * n + j] += a[i * k + p] * b[p * n + j];
      }
    }
  }
  GemmNN(a.data(), b.data(), c.data(), m, k, n);
  for (size_t i = 0; i < c.size(); ++i) {
    ASSERT_NEAR(c[i], ref[i], 1e-3f) << "at " << i;
  }
}

TEST(KernelsTest, DotAndAxpy) {
  const float x[] = {1, 2, 3, 4, 5};
  float y[] = {1, 1, 1, 1, 1};
  EXPECT_FLOAT_EQ(Dot(5, x, y), 15.0f);
  Axpy(5, 2.0f, x, y);
  EXPECT_FLOAT_EQ(y[4], 11.0f);
}

TEST(KernelsTest, SoftmaxSumsToOne) {
  const float logits[] = {1.0f, 2.0f, 3.0f};
  float probs[3];
  Softmax(3, logits, probs);
  EXPECT_NEAR(probs[0] + probs[1] + probs[2], 1.0f, 1e-6f);
  EXPECT_GT(probs[2], probs[1]);
  EXPECT_GT(probs[1], probs[0]);
}

TEST(KernelsTest, SoftmaxStableForLargeLogits) {
  const float logits[] = {1000.0f, 1000.0f};
  float probs[2];
  Softmax(2, logits, probs);
  EXPECT_NEAR(probs[0], 0.5f, 1e-6f);
}

TEST(KernelsTest, SoftmaxEmptyInputDies) {
  // Softmax once silently returned on n == 0 while LogSumExp aborted on
  // the identical input; both now share the CHECK contract.
  float probs[1];
  EXPECT_DEATH(Softmax(0, nullptr, probs), "Check failed");
}

TEST(KernelsTest, LogSumExpEmptyInputDies) {
  EXPECT_DEATH(LogSumExp(0, nullptr), "Check failed");
}

TEST(KernelsTest, SoftmaxSingleElementIsOne) {
  const float logit = 3.5f;
  float prob = 0.0f;
  Softmax(1, &logit, &prob);
  EXPECT_FLOAT_EQ(prob, 1.0f);
  EXPECT_FLOAT_EQ(LogSumExp(1, &logit), 3.5f);
}

// Serial reference for GemmTN: C[k×n] = alpha·AᵀB + beta·C, plain triple
// loop with no blocking or unrolling.
void ReferenceGemmTN(const std::vector<float>& a, const std::vector<float>& b,
                     std::vector<float>* c, size_t m, size_t k, size_t n,
                     float alpha, float beta) {
  for (auto& v : *c) v *= beta;
  for (size_t i = 0; i < m; ++i) {
    for (size_t p = 0; p < k; ++p) {
      for (size_t j = 0; j < n; ++j) {
        (*c)[p * n + j] += alpha * a[i * k + p] * b[i * n + j];
      }
    }
  }
}

struct GemmTNShape {
  size_t m, k, n;
};

class GemmTNParallelTest : public ::testing::TestWithParam<GemmTNShape> {};

TEST_P(GemmTNParallelTest, MatchesSerialReference) {
  const auto [m, k, n] = GetParam();
  std::vector<float> a(m * k), b(m * n);
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<float>((i * 37 + 11) % 13) / 13.0f - 0.5f;
  }
  for (size_t i = 0; i < b.size(); ++i) {
    b[i] = static_cast<float>((i * 29 + 5) % 17) / 17.0f - 0.5f;
  }
  // Non-trivial alpha/beta plus pre-filled C exercise the scale path.
  std::vector<float> c(k * n, 0.25f), ref(k * n, 0.25f);
  GemmTN(a.data(), b.data(), c.data(), m, k, n, 0.5f, 2.0f);
  ReferenceGemmTN(a, b, &ref, m, k, n, 0.5f, 2.0f);
  // Parallel chunks merge in nondeterministic order, so compare with a
  // tolerance scaled to the m-long accumulation.
  const float tol = 1e-5f * static_cast<float>(m);
  for (size_t i = 0; i < c.size(); ++i) {
    ASSERT_NEAR(c[i], ref[i], tol) << "at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    OddShapes, GemmTNParallelTest,
    ::testing::Values(GemmTNShape{1, 7, 5},      // single row
                      GemmTNShape{513, 1, 3},    // k = 1
                      GemmTNShape{1000, 3, 1},   // n = 1
                      GemmTNShape{517, 129, 33},  // nothing divides chunks
                      GemmTNShape{2048, 256, 64}  // above parallel cutoff
                      ),
    [](const auto& info) {
      return std::string("m") + std::to_string(info.param.m) + "k" +
             std::to_string(info.param.k) + "n" +
             std::to_string(info.param.n);
    });

TEST(KernelsTest, SigmoidScalarStable) {
  EXPECT_NEAR(SigmoidScalar(0.0f), 0.5f, 1e-7f);
  EXPECT_NEAR(SigmoidScalar(100.0f), 1.0f, 1e-6f);
  EXPECT_NEAR(SigmoidScalar(-100.0f), 0.0f, 1e-6f);
}

TEST(KernelsTest, HadamardOps) {
  const float x[] = {1, 2, 3};
  const float y[] = {4, 5, 6};
  float out[3];
  Hadamard(3, x, y, out);
  EXPECT_FLOAT_EQ(out[1], 10.0f);
  HadamardAccum(3, x, y, out);
  EXPECT_FLOAT_EQ(out[1], 20.0f);
}

TEST(KernelsTest, LogSumExp) {
  const float x[] = {0.0f, 0.0f};
  EXPECT_NEAR(LogSumExp(2, x), std::log(2.0f), 1e-6f);
}

TEST(KernelsTest, MatMulShapeChecked) {
  Tensor a({2, 3});
  Tensor b({3, 4});
  Tensor c;
  a.Fill(1.0f);
  b.Fill(2.0f);
  MatMul(a, b, &c);
  EXPECT_EQ(c.rows(), 2u);
  EXPECT_EQ(c.cols(), 4u);
  EXPECT_FLOAT_EQ(c.at(1, 3), 6.0f);
}

}  // namespace
}  // namespace optinter

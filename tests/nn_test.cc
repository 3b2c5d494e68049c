#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "gradient_check.h"
#include "nn/embedding.h"
#include "nn/init.h"
#include "nn/layers.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"
#include "prepared_scatter.h"

namespace optinter {
namespace {

using testing::CheckGradient;
using testing::GradRows;
using testing::PreparedGradOfRow;
using testing::ScatterIntoTable;

// Fixed projection so a vector output reduces to a scalar loss with
// non-degenerate gradients.
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

// ---------------------------------------------------------------------------
// Initializers
// ---------------------------------------------------------------------------

TEST(InitTest, XavierBounds) {
  Rng rng(1);
  Tensor t({100, 50});
  XavierUniform(&t, 50, 100, &rng);
  const double bound = std::sqrt(6.0 / 150.0);
  float max_abs = 0.0f;
  for (size_t i = 0; i < t.size(); ++i) {
    max_abs = std::max(max_abs, std::fabs(t[i]));
  }
  EXPECT_LE(max_abs, bound + 1e-6);
  EXPECT_GT(max_abs, bound * 0.8);  // should come close to the bound
}

TEST(InitTest, NormalMoments) {
  Rng rng(2);
  Tensor t({20000});
  NormalInit(&t, 1.0, 0.5, &rng);
  double sum = 0.0, sq = 0.0;
  for (size_t i = 0; i < t.size(); ++i) {
    sum += t[i];
    sq += t[i] * t[i];
  }
  const double mean = sum / t.size();
  EXPECT_NEAR(mean, 1.0, 0.02);
  EXPECT_NEAR(sq / t.size() - mean * mean, 0.25, 0.02);
}

TEST(InitTest, ConstantFill) {
  Tensor t({5});
  ConstantInit(&t, 3.0f);
  for (size_t i = 0; i < 5; ++i) EXPECT_EQ(t[i], 3.0f);
}

// ---------------------------------------------------------------------------
// Layers: gradient checks
// ---------------------------------------------------------------------------

TEST(LinearTest, ForwardMatchesManual) {
  Rng rng(3);
  Linear lin("t", 2, 2, 1e-3f, 0.0f, &rng);
  lin.weight.value.at(0, 0) = 1.0f;
  lin.weight.value.at(0, 1) = 2.0f;
  lin.weight.value.at(1, 0) = -1.0f;
  lin.weight.value.at(1, 1) = 0.5f;
  lin.bias.value[0] = 0.1f;
  lin.bias.value[1] = -0.2f;
  Tensor x({1, 2});
  x.at(0, 0) = 3.0f;
  x.at(0, 1) = 4.0f;
  Tensor y;
  lin.Forward(x, &y);
  EXPECT_NEAR(y.at(0, 0), 3.0f + 8.0f + 0.1f, 1e-5f);
  EXPECT_NEAR(y.at(0, 1), -3.0f + 2.0f - 0.2f, 1e-5f);
}

TEST(LinearTest, GradientCheckWeightBiasInput) {
  Rng rng(4);
  Linear lin("t", 5, 3, 1e-3f, 0.0f, &rng);
  Tensor x = RandomTensor({4, 5}, &rng);
  Tensor c = RandomTensor({4, 3}, &rng);
  auto loss = [&]() {
    Tensor y;
    lin.Forward(x, &y);
    return WeightedSum(y, c);
  };
  Tensor y;
  lin.Forward(x, &y);
  Tensor dx;
  lin.Backward(c, &dx);
  CheckGradient(lin.weight.value.data(), lin.weight.value.size(),
                lin.weight.grad.data(), loss);
  CheckGradient(lin.bias.value.data(), lin.bias.value.size(),
                lin.bias.grad.data(), loss);
  CheckGradient(x.data(), x.size(), dx.data(), loss);
}

TEST(ReluTest, ForwardAndGradient) {
  Relu relu;
  Tensor x({1, 4});
  x[0] = -1.0f;
  x[1] = 2.0f;
  x[2] = 0.5f;
  x[3] = -0.1f;
  Tensor y;
  relu.Forward(x, &y);
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_EQ(y[1], 2.0f);
  Tensor dy({1, 4});
  dy.Fill(1.0f);
  Tensor dx;
  relu.Backward(dy, &dx);
  EXPECT_EQ(dx[0], 0.0f);
  EXPECT_EQ(dx[1], 1.0f);
  EXPECT_EQ(dx[2], 1.0f);
  EXPECT_EQ(dx[3], 0.0f);
}

TEST(LayerNormTest, NormalizesRows) {
  LayerNorm ln("t", 8, 1e-3f, 0.0f);
  Rng rng(5);
  Tensor x = RandomTensor({3, 8}, &rng, 5.0);
  Tensor y;
  ln.Forward(x, &y);
  for (size_t r = 0; r < 3; ++r) {
    double mean = 0.0, var = 0.0;
    for (size_t j = 0; j < 8; ++j) mean += y.at(r, j);
    mean /= 8.0;
    for (size_t j = 0; j < 8; ++j) {
      var += (y.at(r, j) - mean) * (y.at(r, j) - mean);
    }
    var /= 8.0;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var, 1.0, 1e-2);
  }
}

TEST(LayerNormTest, GradientCheck) {
  LayerNorm ln("t", 6, 1e-3f, 0.0f);
  Rng rng(6);
  // Non-trivial gamma/beta so their gradients are exercised.
  for (size_t i = 0; i < 6; ++i) {
    ln.gamma.value[i] = 0.5f + 0.1f * static_cast<float>(i);
    ln.beta.value[i] = 0.05f * static_cast<float>(i);
  }
  Tensor x = RandomTensor({3, 6}, &rng, 2.0);
  Tensor c = RandomTensor({3, 6}, &rng);
  auto loss = [&]() {
    Tensor y;
    ln.Forward(x, &y);
    return WeightedSum(y, c);
  };
  Tensor y;
  ln.Forward(x, &y);
  Tensor dx;
  ln.Backward(c, &dx);
  CheckGradient(ln.gamma.value.data(), 6, ln.gamma.grad.data(), loss);
  CheckGradient(ln.beta.value.data(), 6, ln.beta.grad.data(), loss);
  CheckGradient(x.data(), x.size(), dx.data(), loss, 1e-3, 4e-2);
}

TEST(BceTest, MatchesManualValues) {
  const float logits[] = {0.0f};
  const float labels[] = {1.0f};
  float dlogits[1];
  const float loss = BceWithLogitsLoss(logits, labels, 1, dlogits);
  EXPECT_NEAR(loss, std::log(2.0f), 1e-6f);
  EXPECT_NEAR(dlogits[0], -0.5f, 1e-6f);
}

TEST(BceTest, GradientMatchesFiniteDifference) {
  float logits[] = {0.3f, -1.2f, 2.0f, 0.0f};
  const float labels[] = {1.0f, 0.0f, 1.0f, 0.0f};
  float dlogits[4];
  BceWithLogitsLoss(logits, labels, 4, dlogits);
  auto loss = [&]() {
    float tmp[4];
    return static_cast<double>(BceWithLogitsLoss(logits, labels, 4, tmp));
  };
  CheckGradient(logits, 4, dlogits, loss, 1e-3, 1e-2);
}

TEST(BceTest, StableForExtremeLogits) {
  const float logits[] = {100.0f, -100.0f};
  const float labels[] = {1.0f, 0.0f};
  float dlogits[2];
  const float loss = BceWithLogitsLoss(logits, labels, 2, dlogits);
  EXPECT_LT(loss, 1e-6f);
  EXPECT_TRUE(std::isfinite(loss));
}

TEST(MlpTest, GradientCheckThroughStack) {
  Rng rng(7);
  MlpConfig cfg;
  cfg.hidden = {7, 5};
  cfg.out_dim = 2;
  cfg.layer_norm = true;
  Mlp mlp("t", 6, cfg, &rng);
  Tensor x = RandomTensor({3, 6}, &rng);
  Tensor c = RandomTensor({3, 2}, &rng);
  auto loss = [&]() {
    Tensor y;
    mlp.Forward(x, &y);
    return WeightedSum(y, c);
  };
  Tensor y;
  mlp.Forward(x, &y);
  Tensor dx;
  mlp.Backward(c, &dx);
  // Input gradient: ReLU kinks can break finite differences exactly at 0;
  // random init makes that measure-zero. Use looser tolerance.
  CheckGradient(x.data(), x.size(), dx.data(), loss, 1e-3, 5e-2);
}

TEST(MlpTest, NoHiddenIsPureLinear) {
  Rng rng(8);
  MlpConfig cfg;
  cfg.hidden = {};
  cfg.out_dim = 1;
  Mlp mlp("t", 4, cfg, &rng);
  Tensor x = RandomTensor({2, 4}, &rng);
  Tensor y;
  mlp.Forward(x, &y);
  EXPECT_EQ(y.rows(), 2u);
  EXPECT_EQ(y.cols(), 1u);
  // Backward with dx must be well-formed.
  Tensor dy({2, 1});
  dy.Fill(1.0f);
  Tensor dx;
  mlp.Backward(dy, &dx);
  EXPECT_EQ(dx.cols(), 4u);
}

TEST(MlpTest, ParamCountFormula) {
  Rng rng(9);
  MlpConfig cfg;
  cfg.hidden = {10, 5};
  cfg.out_dim = 1;
  cfg.layer_norm = true;
  Mlp mlp("t", 8, cfg, &rng);
  // linears: 8*10+10 + 10*5+5 + 5*1+1 = 90+55+6 = 151; LN: 2*(10+5) = 30.
  EXPECT_EQ(mlp.ParamCount(), 151u + 30u);
}

// ---------------------------------------------------------------------------
// Optimizers
// ---------------------------------------------------------------------------

TEST(SgdTest, ConvergesOnQuadratic) {
  DenseParam p;
  p.Resize({1});
  p.value[0] = 5.0f;
  p.lr = 0.1f;
  Sgd sgd;
  sgd.AddParam(&p);
  for (int i = 0; i < 200; ++i) {
    p.grad[0] = 2.0f * p.value[0];  // d/dw of w²
    sgd.Step();
    sgd.ZeroGrad();
  }
  EXPECT_NEAR(p.value[0], 0.0f, 1e-4f);
}

TEST(SgdTest, AppliesL2) {
  DenseParam p;
  p.Resize({1});
  p.value[0] = 1.0f;
  p.lr = 0.1f;
  p.l2 = 1.0f;
  Sgd sgd;
  sgd.AddParam(&p);
  sgd.Step();  // zero grad, only decay: w -= lr * l2 * w
  EXPECT_NEAR(p.value[0], 0.9f, 1e-6f);
}

TEST(AdamTest, FirstStepIsSignedLr) {
  // With bias correction, the first Adam step is ≈ lr * sign(grad).
  DenseParam p;
  p.Resize({2});
  p.value[0] = 1.0f;
  p.value[1] = 1.0f;
  p.lr = 0.01f;
  Adam adam;
  adam.AddParam(&p);
  p.grad[0] = 0.5f;
  p.grad[1] = -3.0f;
  adam.Step();
  EXPECT_NEAR(p.value[0], 1.0f - 0.01f, 1e-4f);
  EXPECT_NEAR(p.value[1], 1.0f + 0.01f, 1e-4f);
}

TEST(AdamTest, ConvergesOnQuadratic) {
  DenseParam p;
  p.Resize({1});
  p.value[0] = 3.0f;
  p.lr = 0.05f;
  Adam adam;
  adam.AddParam(&p);
  for (int i = 0; i < 2000; ++i) {
    p.grad[0] = 2.0f * p.value[0];
    adam.Step();
    adam.ZeroGrad();
  }
  EXPECT_NEAR(p.value[0], 0.0f, 1e-2f);
}

TEST(GrdaTest, PrunesNoiseKeepsSignal) {
  // Two gates: one receives consistent gradient pressure (useful), the
  // other none (useless). GRDA must zero the useless one and keep the
  // useful one alive.
  DenseParam p;
  p.Resize({2});
  p.value[0] = 0.5f;
  p.value[1] = 0.5f;
  p.lr = 0.1f;
  GrdaConfig cfg;
  cfg.c = 0.1f;
  cfg.mu = 0.8f;
  Grda grda(cfg);
  grda.AddParam(&p);
  for (int i = 0; i < 500; ++i) {
    p.grad[0] = -1.0f;  // keeps pushing gate 0 up
    p.grad[1] = 0.0f;
    grda.Step();
    grda.ZeroGrad();
  }
  EXPECT_GT(p.value[0], 1.0f);
  EXPECT_EQ(p.value[1], 0.0f);
}

TEST(GrdaTest, ThresholdGrowsOverTime) {
  // Even a nonzero initial weight decays to exactly zero without gradient
  // support once the accumulated threshold exceeds it.
  DenseParam p;
  p.Resize({1});
  p.value[0] = 0.2f;
  p.lr = 0.1f;
  GrdaConfig cfg;
  cfg.c = 0.1f;
  cfg.mu = 0.8f;
  Grda grda(cfg);
  grda.AddParam(&p);
  for (int i = 0; i < 2000 && p.value[0] != 0.0f; ++i) {
    grda.Step();
    grda.ZeroGrad();
  }
  EXPECT_EQ(p.value[0], 0.0f);
}

// ---------------------------------------------------------------------------
// EmbeddingTable
// ---------------------------------------------------------------------------

TEST(EmbeddingTest, RowAccessAndInit) {
  Rng rng(10);
  EmbeddingTable table("t", 10, 4, 1e-3f, 0.0f);
  table.Init(&rng, 0.1);
  const float* row = table.Row(3);
  bool any_nonzero = false;
  for (size_t i = 0; i < 4; ++i) any_nonzero |= row[i] != 0.0f;
  EXPECT_TRUE(any_nonzero);
  EXPECT_EQ(table.ParamCount(), 40u);
}

TEST(EmbeddingTest, AccumulateDedupsIds) {
  EmbeddingTable table("t", 10, 2, 1e-3f, 0.0f);
  PreparedTable pt;
  ScatterIntoTable(&table, {5, 5, 7},
                   GradRows({{1.0f, 2.0f}, {1.0f, 2.0f}, {1.0f, 2.0f}}), &pt);
  EXPECT_EQ(pt.unique_rows, (std::vector<int32_t>{5, 7}));
  EXPECT_EQ(pt.slots, (std::vector<int32_t>{0, 0, 1}));
  EXPECT_EQ(table.PreparedGrad(0)[1], 4.0f);
  table.ClearPreparedGrads();
}

// Adam's first step moves each touched coordinate by ~lr against its
// gradient's sign; untouched rows keep their weights bit for bit.
TEST(EmbeddingTest, SparseSgdUpdatesOnlyTouchedRows) {
  Rng rng(11);
  EmbeddingTable table("t", 10, 2, 0.1f, 0.0f);
  table.Init(&rng, 0.1);
  const std::vector<float> before0(table.Row(0), table.Row(0) + 2);
  const std::vector<float> before5(table.Row(5), table.Row(5) + 2);
  PreparedTable pt;
  ScatterIntoTable(&table, {5}, GradRows({{1.0f, -1.0f}}), &pt);
  table.SparseAdamStepPrepared();
  EXPECT_EQ(table.Row(0)[0], before0[0]);
  EXPECT_EQ(table.Row(0)[1], before0[1]);
  EXPECT_NEAR(table.Row(5)[0], before5[0] - 0.1f, 1e-6f);
  EXPECT_NEAR(table.Row(5)[1], before5[1] + 0.1f, 1e-6f);
}

TEST(EmbeddingTest, SparseAdamFirstStepIsSignedLr) {
  EmbeddingTable table("t", 4, 2, 0.01f, 0.0f);
  PreparedTable pt;
  ScatterIntoTable(&table, {1}, GradRows({{2.0f, -0.3f}}), &pt);
  table.SparseAdamStepPrepared();
  EXPECT_NEAR(table.Row(1)[0], -0.01f, 1e-4f);
  EXPECT_NEAR(table.Row(1)[1], 0.01f, 1e-4f);
}

TEST(EmbeddingTest, AccumulatedGradsSum) {
  EmbeddingTable table("t", 4, 1, 0.5f, 0.0f);
  PreparedTable pt;
  ScatterIntoTable(&table, {2, 2}, GradRows({{1.0f}, {3.0f}}), &pt);
  const float* g = PreparedGradOfRow(table, pt, 2);
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g[0], 4.0f);
  table.SparseAdamStepPrepared();
  EXPECT_NEAR(table.Row(2)[0], -0.5f, 1e-6f);
}

TEST(EmbeddingTest, ClearGradsDiscards) {
  EmbeddingTable table("t", 4, 1, 0.5f, 0.0f);
  PreparedTable pt;
  ScatterIntoTable(&table, {2}, GradRows({{1.0f}}), &pt);
  table.ClearPreparedGrads();
  table.SparseAdamStepPrepared();
  EXPECT_EQ(table.Row(2)[0], 0.0f);
}

// L2 decays touched rows only: with a zero gradient, row 2's first Adam
// step is driven by l2·w alone, and untouched row 3 keeps its weight.
TEST(EmbeddingTest, L2AppliedToTouchedRows) {
  EmbeddingTable table("t", 4, 1, 0.1f, 1.0f);
  table.MutableRow(2)[0] = 1.0f;
  table.MutableRow(3)[0] = 1.0f;
  PreparedTable pt;
  ScatterIntoTable(&table, {2}, GradRows({{0.0f}}), &pt);
  table.SparseAdamStepPrepared();
  EXPECT_NEAR(table.Row(2)[0], 0.9f, 1e-6f);
  EXPECT_EQ(table.Row(3)[0], 1.0f);
}

}  // namespace
}  // namespace optinter

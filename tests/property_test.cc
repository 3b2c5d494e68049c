// Property-based and cross-implementation consistency tests: invariants
// that must hold for randomized inputs across parameter sweeps.

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "common/rng.h"
#include "data/encoder.h"
#include "metrics/metrics.h"
#include "metrics/mutual_information.h"
#include "metrics/significance.h"
#include "synth/prepare.h"
#include "tensor/kernels.h"

namespace optinter {
namespace {

// ---------------------------------------------------------------------------
// GEMM variants must agree with explicit transposition.
// ---------------------------------------------------------------------------

struct GemmShape {
  size_t m, k, n;
};

class GemmConsistencyTest : public ::testing::TestWithParam<GemmShape> {};

TEST_P(GemmConsistencyTest, NTMatchesNNWithTransposedB) {
  const auto [m, k, n] = GetParam();
  Rng rng(m * 1000 + k * 10 + n);
  std::vector<float> a(m * k), b(n * k), bt(k * n);
  for (auto& v : a) v = static_cast<float>(rng.Uniform(-1, 1));
  for (auto& v : b) v = static_cast<float>(rng.Uniform(-1, 1));
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < k; ++c) bt[c * n + r] = b[r * k + c];
  }
  std::vector<float> c1(m * n), c2(m * n);
  GemmNT(a.data(), b.data(), c1.data(), m, k, n);
  GemmNN(a.data(), bt.data(), c2.data(), m, k, n);
  for (size_t i = 0; i < c1.size(); ++i) {
    ASSERT_NEAR(c1[i], c2[i], 1e-4f);
  }
}

TEST_P(GemmConsistencyTest, TNMatchesNNWithTransposedA) {
  const auto [m, k, n] = GetParam();
  Rng rng(m * 999 + k * 7 + n);
  std::vector<float> a(m * k), at(k * m), b(m * n);
  for (auto& v : a) v = static_cast<float>(rng.Uniform(-1, 1));
  for (auto& v : b) v = static_cast<float>(rng.Uniform(-1, 1));
  for (size_t r = 0; r < m; ++r) {
    for (size_t c = 0; c < k; ++c) at[c * m + r] = a[r * k + c];
  }
  std::vector<float> c1(k * n), c2(k * n);
  GemmTN(a.data(), b.data(), c1.data(), m, k, n);
  GemmNN(at.data(), b.data(), c2.data(), k, m, n);
  for (size_t i = 0; i < c1.size(); ++i) {
    ASSERT_NEAR(c1[i], c2[i], 1e-4f);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmConsistencyTest,
    ::testing::Values(GemmShape{1, 1, 1}, GemmShape{3, 5, 7},
                      GemmShape{16, 16, 16}, GemmShape{33, 65, 17},
                      GemmShape{128, 64, 96}),
    [](const auto& info) {
      return std::string("m") + std::to_string(info.param.m) + "k" +
             std::to_string(info.param.k) + "n" +
             std::to_string(info.param.n);
    });

// ---------------------------------------------------------------------------
// Metric invariants on randomized inputs.
// ---------------------------------------------------------------------------

TEST(MetricPropertyTest, AucAntisymmetryUnderScoreNegation) {
  Rng rng(11);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<float> scores(200), labels(200);
    for (size_t i = 0; i < 200; ++i) {
      scores[i] = static_cast<float>(rng.Uniform(-2, 2));
      labels[i] = rng.Bernoulli(0.4) ? 1.0f : 0.0f;
    }
    if (std::accumulate(labels.begin(), labels.end(), 0.0f) == 0.0f ||
        std::accumulate(labels.begin(), labels.end(), 0.0f) == 200.0f) {
      continue;
    }
    std::vector<float> negated(scores);
    for (auto& s : negated) s = -s;
    EXPECT_NEAR(Auc(scores, labels) + Auc(negated, labels), 1.0, 1e-9);
  }
}

TEST(MetricPropertyTest, LogLossLowerBoundedByEntropy) {
  // For any predictor, expected logloss >= H(y); the base-rate constant
  // predictor achieves it. Check with the base-rate prediction.
  Rng rng(13);
  std::vector<float> labels(5000);
  double pos = 0.0;
  for (auto& y : labels) {
    y = rng.Bernoulli(0.27) ? 1.0f : 0.0f;
    pos += y;
  }
  const float base = static_cast<float>(pos / labels.size());
  std::vector<float> probs(labels.size(), base);
  const double entropy =
      -(base * std::log(base) + (1 - base) * std::log(1 - base));
  EXPECT_NEAR(LogLoss(probs, labels), entropy, 1e-6);
  // A miscalibrated constant must be worse.
  std::vector<float> off(labels.size(), base * 0.5f);
  EXPECT_GT(LogLoss(off, labels), entropy);
}

TEST(MetricPropertyTest, MiUpperBoundedByLabelEntropy) {
  Rng rng(17);
  EncodedDataset d;
  d.schema = DatasetSchema({{"a", FieldType::kCategorical},
                            {"b", FieldType::kCategorical}});
  d.num_rows = 1000;
  d.cat_ids.resize(2000);
  d.cat_vocab_sizes = {20, 20};
  d.labels.resize(1000);
  for (size_t r = 0; r < 1000; ++r) {
    d.cat_ids[r * 2] = static_cast<int32_t>(rng.UniformInt(20));
    d.cat_ids[r * 2 + 1] = static_cast<int32_t>(rng.UniformInt(20));
    d.labels[r] = rng.Bernoulli(0.3) ? 1.0f : 0.0f;
  }
  std::vector<size_t> rows(1000);
  std::iota(rows.begin(), rows.end(), 0);
  const double h = LabelEntropy(d, rows);
  const double mi = PairLabelMutualInformation(d, 0, rows);
  EXPECT_GE(mi, 0.0);
  EXPECT_LE(mi, h + 1e-12);
}

TEST(MetricPropertyTest, PairedTTestPShrinksWithEffectSize) {
  // Per-seed jitter keeps the paired differences from having zero
  // variance (a constant shift would trivially yield p = 0).
  const std::vector<double> base = {0.80, 0.79, 0.81, 0.80, 0.78,
                                    0.82, 0.80, 0.79};
  const std::vector<double> jitter = {0.003, -0.002, 0.001, -0.003,
                                      0.002, -0.001, 0.003, -0.002};
  double prev_p = 1.1;
  for (double delta : {0.001, 0.005, 0.02}) {
    std::vector<double> better(base);
    for (size_t i = 0; i < better.size(); ++i) {
      better[i] += delta + jitter[i];
    }
    const double p = PairedTTest(better, base).p_value;
    EXPECT_LT(p, prev_p);
    prev_p = p;
  }
}

TEST(MetricPropertyTest, WelchSymmetric) {
  const std::vector<double> a = {1.0, 1.1, 0.9, 1.05};
  const std::vector<double> b = {2.0, 2.2, 1.8, 2.1};
  auto ab = WelchTTest(a, b);
  auto ba = WelchTTest(b, a);
  EXPECT_NEAR(ab.p_value, ba.p_value, 1e-12);
  EXPECT_NEAR(ab.t_statistic, -ba.t_statistic, 1e-12);
}

// ---------------------------------------------------------------------------
// Pipeline invariants across every dataset profile.
// ---------------------------------------------------------------------------

class ProfilePipelineTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ProfilePipelineTest, EncodedDatasetInvariants) {
  PrepareOptions opts;
  opts.rows_scale = 0.1;  // keep the sweep fast
  auto prepared = PrepareProfile(GetParam(), opts);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  const EncodedDataset& d = prepared->data;
  const Splits& s = prepared->splits;

  // Splits partition the rows.
  EXPECT_EQ(s.train.size() + s.val.size() + s.test.size(), d.num_rows);

  // Every id is within its vocab.
  for (size_t r = 0; r < d.num_rows; ++r) {
    for (size_t f = 0; f < d.num_categorical(); ++f) {
      ASSERT_GE(d.cat(r, f), 0);
      ASSERT_LT(static_cast<size_t>(d.cat(r, f)), d.cat_vocab_sizes[f]);
    }
    for (size_t p = 0; p < d.num_pairs(); ++p) {
      ASSERT_GE(d.cross(r, p), 0);
      ASSERT_LT(static_cast<size_t>(d.cross(r, p)),
                d.cross_vocab_sizes[p]);
    }
    for (size_t f = 0; f < d.num_continuous(); ++f) {
      ASSERT_GE(d.cont(r, f), 0.0f);
      ASSERT_LE(d.cont(r, f), 1.0f);
    }
  }

  // Cross vocabularies never exceed the product of the field vocabs and
  // never exceed the fitted row count + OOV.
  const auto pairs = EnumeratePairs(d.num_categorical());
  for (size_t p = 0; p < d.num_pairs(); ++p) {
    const auto [i, j] = pairs[p];
    EXPECT_LE(d.cross_vocab_sizes[p],
              d.cat_vocab_sizes[i] * d.cat_vocab_sizes[j] + 1);
    EXPECT_LE(d.cross_vocab_sizes[p], s.train.size() + 1);
  }

  // Positive ratio lands near the profile's target.
  EXPECT_NEAR(d.PositiveRatio(), prepared->config.target_pos_ratio, 0.05);
}

INSTANTIATE_TEST_SUITE_P(AllProfiles, ProfilePipelineTest,
                         ::testing::Values("criteo_like", "avazu_like",
                                           "ipinyou_like", "private_like",
                                           "tiny"),
                         [](const auto& info) { return info.param; });

// ---------------------------------------------------------------------------
// Encoder fit/transform separation.
// ---------------------------------------------------------------------------

TEST(EncoderPropertyTest, TestRowsNeverEnlargeVocab) {
  SynthConfig cfg = TinyConfig();
  cfg.num_rows = 3000;
  RawDataset raw = GenerateSynthetic(cfg);
  std::vector<size_t> first_half(1500), all_rows(3000);
  std::iota(first_half.begin(), first_half.end(), 0);
  std::iota(all_rows.begin(), all_rows.end(), 0);
  EncoderOptions opts;
  opts.cat_min_count = 2;
  opts.build_cross = false;
  auto enc_half = EncodeDataset(raw, first_half, opts);
  ASSERT_TRUE(enc_half.ok());
  auto enc_all = EncodeDataset(raw, all_rows, opts);
  ASSERT_TRUE(enc_all.ok());
  for (size_t f = 0; f < raw.schema.num_categorical(); ++f) {
    EXPECT_LE(enc_half->cat_vocab_sizes[f], enc_all->cat_vocab_sizes[f]);
  }
}

// ---------------------------------------------------------------------------
// Tensor / RNG edge behaviour.
// ---------------------------------------------------------------------------

TEST(DeathTest, TensorBoundsChecked) {
  Tensor t({2, 2});
  EXPECT_DEATH(t.at(2, 0), "Check failed");
  EXPECT_DEATH(t.at(0, 5), "Check failed");
}

TEST(DeathTest, ReshapeSizeMismatchChecked) {
  Tensor t({2, 3});
  EXPECT_DEATH(t.Reshape({4, 4}), "Check failed");
}

TEST(DeathTest, AucRequiresBothClasses) {
  const std::vector<float> scores = {0.1f, 0.2f};
  const std::vector<float> all_pos = {1.0f, 1.0f};
  EXPECT_DEATH(Auc(scores, all_pos), "Check failed");
}

TEST(RngPropertyTest, UniformIntBoundaryOne) {
  Rng rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.UniformInt(1), 0u);
}

}  // namespace
}  // namespace optinter

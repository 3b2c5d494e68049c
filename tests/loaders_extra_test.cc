// Tests for the libsvm loader, AUC confidence intervals, and negative
// downsampling.

#include <gtest/gtest.h>

#include <fstream>
#include <numeric>

#include "common/rng.h"
#include "data/batch.h"
#include "data/libsvm_loader.h"
#include "metrics/metrics.h"
#include "test_data.h"

namespace optinter {
namespace {

std::string WriteTemp(const std::string& name, const std::string& body) {
  const std::string path = testing::TempPath(name);
  std::ofstream(path) << body;
  return path;
}

std::vector<LibsvmFieldSpec> TwoCatOneContFields() {
  return {
      {"site", FieldType::kCategorical, 0, 100},
      {"device", FieldType::kCategorical, 100, 110},
      {"hour", FieldType::kContinuous, 110, 111},
  };
}

// ---------------------------------------------------------------------------
// libsvm loader
// ---------------------------------------------------------------------------

TEST(LibsvmLoaderTest, ParsesIndicesIntoFieldValues) {
  const std::string path = WriteTemp("a.svm",
                                     "1 5:1 103:1 110:17.5\n"
                                     "0 63:1 100:1 110:2.0\n");
  auto raw = LoadLibsvmDataset(path, TwoCatOneContFields());
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  EXPECT_EQ(raw->num_rows, 2u);
  EXPECT_EQ(raw->labels, (std::vector<float>{1, 0}));
  EXPECT_EQ(raw->cat(0, 0), 5);     // site value = index - 0
  EXPECT_EQ(raw->cat(0, 1), 3);     // device value = 103 - 100
  EXPECT_FLOAT_EQ(raw->cont(0, 0), 17.5f);
  EXPECT_EQ(raw->cat(1, 0), 63);
  EXPECT_EQ(raw->cat(1, 1), 0);
}

TEST(LibsvmLoaderTest, MissingFieldGetsSentinel) {
  const std::string path = WriteTemp("b.svm", "1 5:1\n");
  LibsvmOptions opts;
  opts.missing_value = -7;
  auto raw = LoadLibsvmDataset(path, TwoCatOneContFields(), opts);
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(raw->cat(0, 1), -7);
  EXPECT_FLOAT_EQ(raw->cont(0, 0), 0.0f);
}

TEST(LibsvmLoaderTest, OutOfRangeIndexRejected) {
  const std::string path = WriteTemp("c.svm", "1 500:1\n");
  auto raw = LoadLibsvmDataset(path, TwoCatOneContFields());
  EXPECT_FALSE(raw.ok());
  EXPECT_EQ(raw.status().code(), StatusCode::kOutOfRange);
}

TEST(LibsvmLoaderTest, MalformedTokenRejected) {
  const std::string path = WriteTemp("d.svm", "1 nocolon\n");
  EXPECT_FALSE(LoadLibsvmDataset(path, TwoCatOneContFields()).ok());
}

TEST(LibsvmLoaderTest, OverlappingRangesRejected) {
  std::vector<LibsvmFieldSpec> bad = {
      {"a", FieldType::kCategorical, 0, 50},
      {"b", FieldType::kCategorical, 40, 90},
  };
  const std::string path = WriteTemp("e.svm", "1 5:1\n");
  EXPECT_FALSE(LoadLibsvmDataset(path, bad).ok());
}

TEST(LibsvmLoaderTest, MaxRowsCaps) {
  const std::string path = WriteTemp("f.svm", "1 5:1\n0 6:1\n1 7:1\n");
  LibsvmOptions opts;
  opts.max_rows = 2;
  auto raw = LoadLibsvmDataset(path, TwoCatOneContFields(), opts);
  ASSERT_TRUE(raw.ok());
  EXPECT_EQ(raw->num_rows, 2u);
}

TEST(LibsvmLoaderTest, EmptyFileRejected) {
  const std::string path = WriteTemp("g.svm", "");
  EXPECT_FALSE(LoadLibsvmDataset(path, TwoCatOneContFields()).ok());
}

TEST(LibsvmLoaderTest, TabDelimitedFileRejectedWithActionableMessage) {
  // Regression: a tab-separated file split on ' ' produces one token
  // "1\t5:2" whose label parse used to stop silently at the tab, dropping
  // every feature on the line. It must be an error naming the cause.
  const std::string path = WriteTemp("h.svm", "1\t5:2\n");
  auto raw = LoadLibsvmDataset(path, TwoCatOneContFields());
  ASSERT_FALSE(raw.ok());
  EXPECT_NE(raw.status().ToString().find("tab-delimited"), std::string::npos)
      << raw.status().ToString();
}

TEST(LibsvmLoaderTest, NonNumericIndexRejected) {
  // Regression: strtoull returned 0 for garbage, silently aliasing the
  // token onto feature index 0.
  const std::string path = WriteTemp("i.svm", "1 abc:2\n");
  auto raw = LoadLibsvmDataset(path, TwoCatOneContFields());
  ASSERT_FALSE(raw.ok());
  EXPECT_NE(raw.status().ToString().find("non-numeric index"),
            std::string::npos);
}

TEST(LibsvmLoaderTest, NonNumericValueRejected) {
  const std::string path = WriteTemp("j.svm", "1 5:xyz\n");
  auto raw = LoadLibsvmDataset(path, TwoCatOneContFields());
  ASSERT_FALSE(raw.ok());
  EXPECT_NE(raw.status().ToString().find("non-numeric value"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// AUC confidence intervals
// ---------------------------------------------------------------------------

TEST(AucCiTest, StandardErrorShrinksWithSampleSize) {
  const double se_small = AucStandardError(0.8, 50, 200);
  const double se_big = AucStandardError(0.8, 5000, 20000);
  EXPECT_GT(se_small, se_big);
  EXPECT_GT(se_big, 0.0);
}

TEST(AucCiTest, IntervalCoversPointEstimate) {
  Rng rng(3);
  std::vector<float> scores(2000), labels(2000);
  for (size_t i = 0; i < scores.size(); ++i) {
    labels[i] = rng.Bernoulli(0.3) ? 1.0f : 0.0f;
    scores[i] = static_cast<float>(
        rng.Gaussian(labels[i] > 0.5f ? 0.5 : 0.0, 1.0));
  }
  AucCi ci = AucWithConfidence(scores, labels);
  EXPECT_GT(ci.auc, 0.5);
  EXPECT_LT(ci.lo, ci.auc);
  EXPECT_GT(ci.hi, ci.auc);
  EXPECT_GE(ci.lo, 0.0);
  EXPECT_LE(ci.hi, 1.0);
  EXPECT_NEAR(ci.auc - ci.lo, 1.96 * ci.stderr_, 1e-9);
}

TEST(AucCiTest, PerfectAucHasZeroSe) {
  EXPECT_NEAR(AucStandardError(1.0, 100, 100), 0.0, 1e-12);
}

// ---------------------------------------------------------------------------
// Negative downsampling
// ---------------------------------------------------------------------------

TEST(DownsampleTest, KeepsAllPositives) {
  const auto& p = testing::SharedTinyData();
  Rng rng(5);
  auto kept = DownsampleNegatives(p.data, p.splits.train, 0.25, &rng);
  size_t pos_before = 0, pos_after = 0;
  for (size_t r : p.splits.train) pos_before += p.data.label(r) > 0.5f;
  for (size_t r : kept) pos_after += p.data.label(r) > 0.5f;
  EXPECT_EQ(pos_before, pos_after);
  EXPECT_LT(kept.size(), p.splits.train.size());
}

TEST(DownsampleTest, KeepRateApproximatelyHonored) {
  const auto& p = testing::SharedTinyData();
  Rng rng(6);
  auto kept = DownsampleNegatives(p.data, p.splits.train, 0.5, &rng);
  size_t neg_before = 0, neg_after = 0;
  for (size_t r : p.splits.train) neg_before += p.data.label(r) <= 0.5f;
  for (size_t r : kept) neg_after += p.data.label(r) <= 0.5f;
  EXPECT_NEAR(static_cast<double>(neg_after) / neg_before, 0.5, 0.05);
}

TEST(DownsampleTest, RateOneIsIdentity) {
  const auto& p = testing::SharedTinyData();
  Rng rng(7);
  auto kept = DownsampleNegatives(p.data, p.splits.train, 1.0, &rng);
  EXPECT_EQ(kept.size(), p.splits.train.size());
}

TEST(RecalibrateTest, InvertsDownsamplingOdds) {
  // A model trained at keep_rate w sees odds inflated by 1/w; the
  // recalibration must undo that exactly.
  const double w = 0.1;
  const float true_p = 0.05f;
  // Odds after downsampling: o' = o / w.
  const double o = true_p / (1.0f - true_p);
  const float biased = static_cast<float>((o / w) / (1.0 + o / w));
  EXPECT_NEAR(RecalibrateProbability(biased, w), true_p, 1e-6f);
}

TEST(RecalibrateTest, RateOneIsIdentity) {
  EXPECT_FLOAT_EQ(RecalibrateProbability(0.37f, 1.0), 0.37f);
}

TEST(RecalibrateTest, Monotone) {
  float prev = 0.0f;
  for (float p = 0.05f; p < 1.0f; p += 0.1f) {
    const float r = RecalibrateProbability(p, 0.2);
    EXPECT_GT(r, prev);
    prev = r;
  }
}

}  // namespace
}  // namespace optinter

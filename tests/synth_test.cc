#include <gtest/gtest.h>

#include <numeric>

#include "data/encoder.h"
#include "metrics/metrics.h"
#include "metrics/mutual_information.h"
#include "synth/generator.h"
#include "synth/profiles.h"

namespace optinter {
namespace {

std::vector<size_t> Iota(size_t n) {
  std::vector<size_t> v(n);
  std::iota(v.begin(), v.end(), 0);
  return v;
}

TEST(HashGaussianTest, ApproximatelyStandardNormal) {
  double sum = 0.0, sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double g = synth_internal::HashGaussian(1, 2, i, 0, 0);
    sum += g;
    sq += g * g;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(sq / n - mean * mean, 1.0, 0.05);
}

TEST(HashGaussianTest, DeterministicAndKeyed) {
  const double a = synth_internal::HashGaussian(1, 2, 3, 4, 5);
  EXPECT_EQ(a, synth_internal::HashGaussian(1, 2, 3, 4, 5));
  EXPECT_NE(a, synth_internal::HashGaussian(1, 2, 3, 4, 6));
  EXPECT_NE(a, synth_internal::HashGaussian(2, 2, 3, 4, 5));
}

TEST(GeneratorTest, DeterministicInSeed) {
  SynthConfig cfg = TinyConfig();
  cfg.num_rows = 500;
  RawDataset a = GenerateSynthetic(cfg);
  RawDataset b = GenerateSynthetic(cfg);
  EXPECT_EQ(a.cat_values, b.cat_values);
  EXPECT_EQ(a.labels, b.labels);
}

TEST(GeneratorTest, SeedChangesData) {
  SynthConfig cfg = TinyConfig();
  cfg.num_rows = 500;
  RawDataset a = GenerateSynthetic(cfg);
  cfg.seed += 1;
  RawDataset b = GenerateSynthetic(cfg);
  EXPECT_NE(a.cat_values, b.cat_values);
}

TEST(GeneratorTest, ValuesWithinCardinality) {
  SynthConfig cfg = TinyConfig();
  cfg.num_rows = 2000;
  RawDataset raw = GenerateSynthetic(cfg);
  for (size_t r = 0; r < raw.num_rows; ++r) {
    for (size_t f = 0; f < cfg.num_categorical(); ++f) {
      EXPECT_GE(raw.cat(r, f), 0);
      EXPECT_LT(raw.cat(r, f),
                static_cast<int64_t>(cfg.cardinalities[f]));
    }
  }
}

TEST(GeneratorTest, PositiveRatioCalibrated) {
  for (double target : {0.1, 0.3, 0.5}) {
    SynthConfig cfg = TinyConfig();
    cfg.num_rows = 20000;
    cfg.target_pos_ratio = target;
    RawDataset raw = GenerateSynthetic(cfg);
    double pos = 0.0;
    for (float y : raw.labels) pos += y;
    EXPECT_NEAR(pos / raw.num_rows, target, 0.02) << "target=" << target;
  }
}

TEST(GeneratorTest, PlantedKindsVector) {
  SynthConfig cfg = TinyConfig();
  auto kinds = cfg.PlantedKinds();
  ASSERT_EQ(kinds.size(), cfg.num_pairs());
  size_t mem = 0, fac = 0, noise = 0;
  for (auto k : kinds) {
    if (k == PlantedKind::kMemorize) ++mem;
    if (k == PlantedKind::kFactorize) ++fac;
    if (k == PlantedKind::kNoise) ++noise;
  }
  EXPECT_EQ(mem, cfg.memorize_pairs.size());
  EXPECT_EQ(fac, cfg.factorize_pairs.size());
  EXPECT_EQ(noise, cfg.num_pairs() - mem - fac);
}

TEST(GeneratorTest, ZipfSkewsPopularity) {
  SynthConfig cfg = TinyConfig();
  cfg.num_rows = 10000;
  cfg.zipf_exponent = 1.2;
  RawDataset raw = GenerateSynthetic(cfg);
  // The most popular value of field 0 should dominate a uniform share.
  std::vector<size_t> counts(cfg.cardinalities[0], 0);
  for (size_t r = 0; r < raw.num_rows; ++r) ++counts[raw.cat(r, 0)];
  const size_t max_count = *std::max_element(counts.begin(), counts.end());
  EXPECT_GT(max_count, raw.num_rows / cfg.cardinalities[0] * 5);
}

TEST(GeneratorTest, PlantedMemorizePairsCarryJointInformation) {
  // The core property the whole reproduction rests on: memorize-planted
  // pairs carry *joint* information beyond their fields' marginals, and
  // noise pairs do not. Raw pair MI is confounded by unary effects, so
  // compare the interaction lift MI(pair) − MI(i) − MI(j).
  SynthConfig cfg = TinyConfig();
  cfg.num_rows = 30000;
  RawDataset raw = GenerateSynthetic(cfg);
  EncoderOptions opts;
  opts.cat_min_count = 1;
  opts.build_cross = false;
  auto enc = EncodeDataset(raw, Iota(raw.num_rows), opts);
  ASSERT_TRUE(enc.ok());
  const auto rows = Iota(raw.num_rows);
  auto mi = AllPairMutualInformation(*enc, rows);
  const auto pairs = EnumeratePairs(enc->num_categorical());
  std::vector<double> field_mi(enc->num_categorical());
  for (size_t f = 0; f < enc->num_categorical(); ++f) {
    field_mi[f] = FieldLabelMutualInformation(*enc, f, rows);
  }
  auto kinds = cfg.PlantedKinds();
  double mem_lift = 0.0, noise_lift = 0.0;
  size_t mem_n = 0, noise_n = 0;
  for (size_t p = 0; p < mi.size(); ++p) {
    const double lift = mi[p] - field_mi[pairs[p].first] -
                        field_mi[pairs[p].second];
    if (kinds[p] == PlantedKind::kMemorize) {
      mem_lift += lift;
      ++mem_n;
    } else if (kinds[p] == PlantedKind::kNoise) {
      noise_lift += lift;
      ++noise_n;
    }
  }
  ASSERT_GT(mem_n, 0u);
  ASSERT_GT(noise_n, 0u);
  EXPECT_GT(mem_lift / mem_n, noise_lift / noise_n + 0.01);
}

TEST(GeneratorTest, ContinuousFieldsPopulated) {
  SynthConfig cfg = TinyConfig();
  cfg.num_rows = 100;
  RawDataset raw = GenerateSynthetic(cfg);
  ASSERT_EQ(cfg.num_continuous, 1u);
  bool varied = false;
  for (size_t r = 1; r < raw.num_rows; ++r) {
    varied |= raw.cont(r, 0) != raw.cont(0, 0);
  }
  EXPECT_TRUE(varied);
}

// ---------------------------------------------------------------------------
// Profiles
// ---------------------------------------------------------------------------

TEST(ProfilesTest, AllPaperProfilesResolve) {
  for (const auto& name : PaperProfileNames()) {
    auto cfg = GetProfile(name);
    ASSERT_TRUE(cfg.ok()) << name;
    EXPECT_EQ(cfg->name, name);
    EXPECT_GE(cfg->num_categorical(), 2u);
    EXPECT_GT(cfg->num_rows, 0u);
    EXPECT_LE(cfg->memorize_pairs.size() + cfg->factorize_pairs.size(),
              cfg->num_pairs());
  }
}

TEST(ProfilesTest, UnknownProfileRejected) {
  EXPECT_FALSE(GetProfile("criteo_actual").ok());
}

TEST(ProfilesTest, TableIIShapePreserved) {
  // Relative shapes from Table II: Criteo has continuous fields, Avazu's
  // first field dwarfs the rest (Device_ID), iPinYou has the rarest
  // positives, private has 9 categorical fields / 36 pairs.
  auto criteo = CriteoLikeConfig();
  EXPECT_GT(criteo.num_continuous, 0u);
  EXPECT_NEAR(criteo.target_pos_ratio, 0.23, 1e-9);

  auto avazu = AvazuLikeConfig();
  EXPECT_GT(avazu.cardinalities[0], 3 * avazu.cardinalities[1]);

  auto ipinyou = IpinyouLikeConfig();
  auto priv = PrivateLikeConfig();
  EXPECT_LT(ipinyou.target_pos_ratio, avazu.target_pos_ratio);
  EXPECT_EQ(priv.num_categorical(), 9u);
  EXPECT_EQ(priv.num_pairs(), 36u);
}

TEST(ProfilesTest, PlantedPairsDisjoint) {
  for (const auto& name : PaperProfileNames()) {
    auto cfg = GetProfile(name);
    ASSERT_TRUE(cfg.ok());
    std::set<std::pair<size_t, size_t>> mem(cfg->memorize_pairs.begin(),
                                            cfg->memorize_pairs.end());
    for (const auto& p : cfg->factorize_pairs) {
      EXPECT_EQ(mem.count(p), 0u) << name;
    }
  }
}

TEST(ProfilesTest, ScaleRowsClampsAndScales) {
  SynthConfig cfg = TinyConfig();
  cfg.num_rows = 10000;
  ScaleRows(&cfg, 0.5);
  EXPECT_EQ(cfg.num_rows, 5000u);
  ScaleRows(&cfg, 1e-9);
  EXPECT_EQ(cfg.num_rows, 1000u);  // floor
}

}  // namespace
}  // namespace optinter

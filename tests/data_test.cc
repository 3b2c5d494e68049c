#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "data/batch.h"
#include "data/encoder.h"
#include "data/schema.h"
#include "data/vocab.h"

namespace optinter {
namespace {

// ---------------------------------------------------------------------------
// Schema
// ---------------------------------------------------------------------------

DatasetSchema MixedSchema() {
  return DatasetSchema({{"c0", FieldType::kCategorical},
                        {"c1", FieldType::kCategorical},
                        {"x0", FieldType::kContinuous},
                        {"c2", FieldType::kCategorical}});
}

TEST(SchemaTest, FieldPartition) {
  DatasetSchema s = MixedSchema();
  EXPECT_EQ(s.num_fields(), 4u);
  EXPECT_EQ(s.num_categorical(), 3u);
  EXPECT_EQ(s.num_continuous(), 1u);
  EXPECT_EQ(s.categorical_fields(), (std::vector<size_t>{0, 1, 3}));
  EXPECT_EQ(s.continuous_fields(), (std::vector<size_t>{2}));
}

TEST(SchemaTest, NumPairsFormula) {
  DatasetSchema s = MixedSchema();
  EXPECT_EQ(s.num_pairs(), 3u);  // C(3,2)
}

TEST(SchemaTest, EnumeratePairsCanonicalOrder) {
  auto pairs = EnumeratePairs(4);
  ASSERT_EQ(pairs.size(), 6u);
  EXPECT_EQ(pairs[0], (std::pair<size_t, size_t>{0, 1}));
  EXPECT_EQ(pairs[1], (std::pair<size_t, size_t>{0, 2}));
  EXPECT_EQ(pairs[2], (std::pair<size_t, size_t>{0, 3}));
  EXPECT_EQ(pairs[3], (std::pair<size_t, size_t>{1, 2}));
  EXPECT_EQ(pairs[5], (std::pair<size_t, size_t>{2, 3}));
}

TEST(SchemaTest, PairIndexInverse) {
  for (size_t m : {2u, 5u, 13u, 26u}) {
    auto pairs = EnumeratePairs(m);
    for (size_t p = 0; p < pairs.size(); ++p) {
      EXPECT_EQ(PairIndex(pairs[p].first, pairs[p].second, m), p);
    }
  }
}

// ---------------------------------------------------------------------------
// Vocab
// ---------------------------------------------------------------------------

TEST(VocabTest, MinCountThresholding) {
  Vocab v;
  for (int i = 0; i < 5; ++i) v.Add(100);
  for (int i = 0; i < 2; ++i) v.Add(200);
  v.Add(300);
  v.Finalize(/*min_count=*/3);
  EXPECT_EQ(v.size(), 2u);  // OOV + {100}
  EXPECT_NE(v.Encode(100), Vocab::kOovId);
  EXPECT_EQ(v.Encode(200), Vocab::kOovId);
  EXPECT_EQ(v.Encode(300), Vocab::kOovId);
  EXPECT_EQ(v.Encode(999), Vocab::kOovId);
}

TEST(VocabTest, DeterministicIdsAcrossInsertOrder) {
  Vocab a, b;
  a.Add(3);
  a.Add(1);
  a.Add(2);
  b.Add(2);
  b.Add(3);
  b.Add(1);
  a.Finalize(1);
  b.Finalize(1);
  for (int64_t v : {1, 2, 3}) EXPECT_EQ(a.Encode(v), b.Encode(v));
}

TEST(VocabTest, IdsAreDense) {
  Vocab v;
  v.Add(10);
  v.Add(20);
  v.Add(30);
  v.Finalize(1);
  std::set<int32_t> ids = {v.Encode(10), v.Encode(20), v.Encode(30)};
  EXPECT_EQ(ids, (std::set<int32_t>{1, 2, 3}));
  EXPECT_EQ(v.size(), 4u);
}

// ---------------------------------------------------------------------------
// Encoder
// ---------------------------------------------------------------------------

RawDataset SmallRaw() {
  RawDataset raw;
  raw.schema = MixedSchema();
  raw.num_rows = 6;
  // 3 categorical fields, 1 continuous.
  raw.cat_values = {
      // c0, c1, c2 per row
      1, 10, 100,  //
      1, 10, 100,  //
      1, 20, 100,  //
      2, 20, 200,  //
      2, 10, 100,  //
      9, 99, 999,  // row 5: rare values
  };
  raw.cont_values = {0.0f, 5.0f, 10.0f, 2.5f, 7.5f, 100.0f};
  raw.labels = {1, 0, 1, 0, 1, 0};
  return raw;
}

std::vector<size_t> AllRows(size_t n) {
  std::vector<size_t> rows(n);
  std::iota(rows.begin(), rows.end(), 0);
  return rows;
}

TEST(EncoderTest, EncodesWithOov) {
  RawDataset raw = SmallRaw();
  EncoderOptions opts;
  opts.cat_min_count = 2;
  auto result = EncodeDataset(raw, AllRows(5), opts);  // fit w/o row 5
  ASSERT_TRUE(result.ok());
  const EncodedDataset& d = *result;
  EXPECT_EQ(d.num_rows, 6u);
  // Field c0: values {1:3, 2:2} → both kept; 9 unseen → OOV.
  EXPECT_NE(d.cat(0, 0), Vocab::kOovId);
  EXPECT_EQ(d.cat(5, 0), Vocab::kOovId);
  EXPECT_EQ(d.cat_vocab_sizes[0], 3u);  // OOV + 2 values
}

TEST(EncoderTest, ContinuousMinMaxNormalized) {
  RawDataset raw = SmallRaw();
  EncoderOptions opts;
  auto result = EncodeDataset(raw, AllRows(5), opts);  // fit range [0,10]
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->cont(0, 0), 0.0f, 1e-6f);
  EXPECT_NEAR(result->cont(2, 0), 1.0f, 1e-6f);
  EXPECT_NEAR(result->cont(1, 0), 0.5f, 1e-6f);
  // Row 5 (100.0) is outside the fitted range → clamped to 1.
  EXPECT_NEAR(result->cont(5, 0), 1.0f, 1e-6f);
}

TEST(EncoderTest, RejectsEmptyFitRows) {
  RawDataset raw = SmallRaw();
  auto result = EncodeDataset(raw, {}, EncoderOptions{});
  EXPECT_FALSE(result.ok());
}

TEST(EncoderTest, RejectsOutOfRangeFitRow) {
  RawDataset raw = SmallRaw();
  auto result = EncodeDataset(raw, {100}, EncoderOptions{});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange);
}

TEST(EncoderTest, PositiveRatio) {
  RawDataset raw = SmallRaw();
  auto result = EncodeDataset(raw, AllRows(6), EncoderOptions{});
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->PositiveRatio(), 0.5, 1e-9);
}

// ---------------------------------------------------------------------------
// Cross features
// ---------------------------------------------------------------------------

TEST(CrossTest, BuildsPerPairVocabs) {
  RawDataset raw = SmallRaw();
  EncoderOptions opts;
  opts.cat_min_count = 1;
  opts.cross_min_count = 1;
  auto result = EncodeDataset(raw, AllRows(6), opts);
  ASSERT_TRUE(result.ok());
  const EncodedDataset& d = *result;
  EXPECT_TRUE(d.has_cross());
  EXPECT_EQ(d.cross_vocab_sizes.size(), 3u);
  EXPECT_EQ(d.cross_ids.size(), 6u * 3u);
  // Pair (c0, c1) over 6 rows: distinct encoded pairs (1,10),(1,20),
  // (2,20),(2,10),(9,99) → 5 values + OOV.
  EXPECT_EQ(d.cross_vocab_sizes[0], 6u);
  // Rows 0 and 1 share the same (c0, c1) combination.
  EXPECT_EQ(d.cross(0, 0), d.cross(1, 0));
  EXPECT_NE(d.cross(0, 0), d.cross(2, 0));
}

TEST(CrossTest, MinCountPushesRareCombosToOov) {
  RawDataset raw = SmallRaw();
  EncoderOptions opts;
  opts.cat_min_count = 1;
  opts.cross_min_count = 2;
  auto result = EncodeDataset(raw, AllRows(6), opts);
  ASSERT_TRUE(result.ok());
  const EncodedDataset& d = *result;
  // Only (1,10) appears twice in pair 0; everything else → OOV.
  EXPECT_EQ(d.cross_vocab_sizes[0], 2u);
  EXPECT_NE(d.cross(0, 0), Vocab::kOovId);
  EXPECT_EQ(d.cross(3, 0), Vocab::kOovId);
}

TEST(CrossTest, TotalsAggregate) {
  RawDataset raw = SmallRaw();
  EncoderOptions opts;
  opts.cat_min_count = 1;
  opts.cross_min_count = 1;
  auto result = EncodeDataset(raw, AllRows(6), opts);
  ASSERT_TRUE(result.ok());
  const EncodedDataset& d = *result;
  size_t orig = 0;
  for (size_t v : d.cat_vocab_sizes) orig += v;
  EXPECT_EQ(d.TotalOrigVocab(), orig);
  size_t cross = 0;
  for (size_t v : d.cross_vocab_sizes) cross += v;
  EXPECT_EQ(d.TotalCrossVocab(), cross);
}

// ---------------------------------------------------------------------------
// Splits & Batcher
// ---------------------------------------------------------------------------

TEST(SplitsTest, SizesAndDisjointness) {
  Rng rng(1);
  Splits s = MakeSplits(1000, 0.7, 0.1, &rng);
  EXPECT_EQ(s.train.size(), 700u);
  EXPECT_EQ(s.val.size(), 100u);
  EXPECT_EQ(s.test.size(), 200u);
  std::set<size_t> all;
  for (auto& part : {s.train, s.val, s.test}) {
    for (size_t r : part) all.insert(r);
  }
  EXPECT_EQ(all.size(), 1000u);
}

TEST(SplitsTest, DeterministicForSeed) {
  Rng r1(7), r2(7);
  Splits a = MakeSplits(100, 0.8, 0.0, &r1);
  Splits b = MakeSplits(100, 0.8, 0.0, &r2);
  EXPECT_EQ(a.train, b.train);
}

TEST(SplitsTest, EmptyTrainSplitDiesAtCreation) {
  // With few rows, num_rows * train_frac truncates to zero; the seed let
  // that slide until TrainModel's CHECK(!splits.train.empty()) much later.
  // It must fail here, at split creation, with an actionable message.
  Rng rng(1);
  EXPECT_DEATH(MakeSplits(5, 0.1, 0.2, &rng), "empty train split");
}

TEST(SplitsTest, SingleRowTrainSplitSurvives) {
  Rng rng(1);
  Splits s = MakeSplits(2, 0.5, 0.0, &rng);
  EXPECT_EQ(s.train.size(), 1u);
  EXPECT_TRUE(s.val.empty());
  EXPECT_EQ(s.test.size(), 1u);
}

TEST(BatcherTest, CoversAllRowsEachEpoch) {
  RawDataset raw = SmallRaw();
  auto result = EncodeDataset(raw, AllRows(6), EncoderOptions{});
  ASSERT_TRUE(result.ok());
  EncodedDataset d = std::move(result).value();
  Batcher batcher(&d, {0, 1, 2, 3, 4, 5}, /*batch_size=*/4, /*seed=*/3);
  for (int epoch = 0; epoch < 3; ++epoch) {
    batcher.StartEpoch();
    std::multiset<size_t> seen;
    size_t batches = 0;
    for (;;) {
      Batch b = batcher.Next();
      if (b.size == 0) break;
      ++batches;
      EXPECT_LE(b.size, 4u);
      for (size_t k = 0; k < b.size; ++k) seen.insert(b.row(k));
    }
    EXPECT_EQ(batches, 2u);
    EXPECT_EQ(seen.size(), 6u);
    for (size_t r = 0; r < 6; ++r) EXPECT_EQ(seen.count(r), 1u);
  }
}

TEST(BatcherTest, ShuffleChangesOrderAcrossEpochs) {
  RawDataset raw = SmallRaw();
  auto result = EncodeDataset(raw, AllRows(6), EncoderOptions{});
  ASSERT_TRUE(result.ok());
  EncodedDataset d = std::move(result).value();
  std::vector<size_t> indices(64);
  std::iota(indices.begin(), indices.end(), 0);
  for (auto& r : indices) r %= 6;
  Batcher batcher(&d, indices, /*batch_size=*/64, /*seed=*/5);
  batcher.StartEpoch();
  Batch b1 = batcher.Next();
  std::vector<size_t> first(b1.rows, b1.rows + b1.size);
  batcher.StartEpoch();
  Batch b2 = batcher.Next();
  std::vector<size_t> second(b2.rows, b2.rows + b2.size);
  // A 64-element reshuffle repeating exactly has negligible probability.
  EXPECT_NE(first, second);
}

TEST(BatchTest, LabelAccessor) {
  RawDataset raw = SmallRaw();
  auto result = EncodeDataset(raw, AllRows(6), EncoderOptions{});
  ASSERT_TRUE(result.ok());
  EncodedDataset d = std::move(result).value();
  const size_t rows[] = {2, 3};
  Batch b;
  b.data = &d;
  b.rows = rows;
  b.size = 2;
  EXPECT_EQ(b.label(0), 1.0f);
  EXPECT_EQ(b.label(1), 0.0f);
}

}  // namespace
}  // namespace optinter

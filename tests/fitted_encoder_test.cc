#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <numeric>
#include <string_view>

#include "common/rng.h"
#include "data/encoder.h"
#include "data/fitted_encoder.h"
#include "data/shard_format.h"
#include "data/stream_encode.h"
#include "synth/profiles.h"
#include "test_data.h"

namespace optinter {
namespace {

struct Fixture {
  RawDataset raw;
  std::vector<size_t> fit_rows;
  EncoderOptions opts;
};

Fixture MakeFixture(size_t num_rows = 4000) {
  Fixture f;
  SynthConfig cfg = TinyConfig();
  cfg.num_rows = num_rows;
  f.raw = GenerateSynthetic(cfg);
  f.fit_rows.resize(num_rows * 7 / 10);
  std::iota(f.fit_rows.begin(), f.fit_rows.end(), 0);
  f.opts.cat_min_count = 2;
  f.opts.cross_min_count = 2;
  return f;
}

Result<FittedEncoder> FitOn(const Fixture& f) {
  MaterializedRowSource rows(&f.raw, &f.fit_rows);
  return FittedEncoder::Fit(&rows, f.fit_rows.size(), f.opts);
}

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

void ExpectSameEncoding(const EncodedDataset& a, const EncodedDataset& b) {
  EXPECT_EQ(a.cat_ids, b.cat_ids);
  EXPECT_EQ(a.cross_ids, b.cross_ids);
  EXPECT_EQ(a.triple_ids, b.triple_ids);
  EXPECT_EQ(a.cont_values, b.cont_values);
  EXPECT_EQ(a.cat_vocab_sizes, b.cat_vocab_sizes);
  EXPECT_EQ(a.cross_vocab_sizes, b.cross_vocab_sizes);
  EXPECT_EQ(a.triple_fields, b.triple_fields);
  EXPECT_EQ(a.triple_vocab_sizes, b.triple_vocab_sizes);
  EXPECT_EQ(a.cat_hot_ids, b.cat_hot_ids);
  EXPECT_EQ(a.cross_hot_ids, b.cross_hot_ids);
}

TEST(FittedEncoderTest, TransformsUnseenDataWithOov) {
  Fixture f = MakeFixture();
  auto enc = FitOn(f);
  ASSERT_TRUE(enc.ok());
  // New "serving" rows drawn from a different seed: same schema, values
  // partially unseen.
  SynthConfig cfg = TinyConfig();
  cfg.num_rows = 500;
  cfg.seed += 1234;
  RawDataset serving = GenerateSynthetic(cfg);
  auto out = enc->Transform(serving);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->num_rows, 500u);
  for (size_t r = 0; r < out->num_rows; ++r) {
    for (size_t fld = 0; fld < out->num_categorical(); ++fld) {
      ASSERT_LT(static_cast<size_t>(out->cat(r, fld)),
                out->cat_vocab_sizes[fld]);
    }
  }
}

TEST(FittedEncoderTest, SchemaMismatchRejected) {
  Fixture f = MakeFixture();
  auto enc = FitOn(f);
  ASSERT_TRUE(enc.ok());
  RawDataset wrong;
  wrong.schema = DatasetSchema({{"other", FieldType::kCategorical},
                                {"thing", FieldType::kCategorical}});
  wrong.num_rows = 1;
  wrong.cat_values = {0, 0};
  wrong.labels = {1.0f};
  EXPECT_FALSE(enc->Transform(wrong).ok());
}

TEST(FittedEncoderTest, TransformRejectsLabelCountMismatch) {
  Fixture f = MakeFixture(400);
  auto enc = FitOn(f);
  ASSERT_TRUE(enc.ok());
  RawDataset short_labels = f.raw;
  short_labels.labels.pop_back();
  auto out = enc->Transform(short_labels);
  EXPECT_EQ(out.status().code(), StatusCode::kInvalidArgument);
  // Fitting reads labels too, so the fit refuses the same dataset.
  MaterializedRowSource rows(&short_labels);
  EXPECT_FALSE(FittedEncoder::Fit(&rows, 10, f.opts).ok());
}

TEST(FittedEncoderTest, WithoutCrossProducesNoCross) {
  Fixture f = MakeFixture();
  f.opts.build_cross = false;
  auto enc = FitOn(f);
  ASSERT_TRUE(enc.ok());
  EXPECT_FALSE(enc->has_cross());
  auto out = enc->Transform(f.raw);
  ASSERT_TRUE(out.ok());
  EXPECT_FALSE(out->has_cross());
  EXPECT_TRUE(out->cross_vocab_sizes.empty());
  EXPECT_TRUE(out->cross_hot_ids.empty());
}

TEST(FittedEncoderTest, SaveLoadRoundTrip) {
  Fixture f = MakeFixture();
  f.opts.triples = {{0, 1, 2}, {1, 3, 4}};
  auto enc = FitOn(f);
  ASSERT_TRUE(enc.ok());
  const std::string path = testing::TempPath("encoder.bin");
  ASSERT_TRUE(enc->Save(path).ok());
  auto loaded = FittedEncoder::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  auto a = enc->Transform(f.raw);
  auto b = loaded->Transform(f.raw);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a->has_triples());
  EXPECT_FALSE(a->cat_hot_ids.empty());
  ExpectSameEncoding(*a, *b);
}

TEST(FittedEncoderTest, HashedSaveLoadTransformGivesIdenticalIds) {
  Fixture f = MakeFixture();
  f.opts.hashed = true;
  f.opts.hash_hot_values = 16;
  f.opts.hash_buckets = 64;
  f.opts.triples = {{0, 1, 2}};
  auto enc = FitOn(f);
  ASSERT_TRUE(enc.ok()) << enc.status().ToString();
  EXPECT_TRUE(enc->hashed());
  const std::string path = testing::TempPath("hashed_encoder.bin");
  ASSERT_TRUE(enc->Save(path).ok());
  auto loaded = FittedEncoder::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->hashed());

  // Rows the fit never saw exercise the hashed tail too.
  SynthConfig cfg = TinyConfig();
  cfg.num_rows = 500;
  cfg.seed += 99;
  RawDataset unseen = GenerateSynthetic(cfg);
  for (const RawDataset* serving : {&f.raw, &unseen}) {
    auto a = enc->Transform(*serving);
    auto b = loaded->Transform(*serving);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    for (size_t v : a->cat_vocab_sizes) EXPECT_LE(v, 1u + 16u + 64u);
    ExpectSameEncoding(*a, *b);
  }
}

// An encoder fitted on the stream prefix attaches the same hot ids to its
// Transform output as the streamed encode writes to the shard MANIFEST,
// so tier plans match between the two paths.
TEST(FittedEncoderTest, TransformCarriesTheStreamedManifestHotIds) {
  Fixture f = MakeFixture();
  for (const bool hashed : {false, true}) {
    SCOPED_TRACE(hashed ? "hashed" : "exact");
    StreamEncodeOptions sopts;
    static_cast<EncoderOptions&>(sopts) = f.opts;
    sopts.hashed = hashed;
    sopts.hash_hot_values = 16;
    sopts.hash_buckets = 64;
    sopts.freq_stats_topk = 8;
    sopts.fit_fraction = 0.7;
    sopts.rows_per_shard = 1000;
    const std::string dir = testing::TempPath("hot_ids_manifest");
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    MaterializedRowSource stream(&f.raw);
    auto stats = StreamEncodeToShards(&stream, dir, sopts);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    ASSERT_EQ(stats->fit_rows, f.fit_rows.size());
    auto manifest = ReadShardManifest(dir);
    ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();

    f.opts = sopts;
    auto enc = FitOn(f);
    ASSERT_TRUE(enc.ok());
    auto out = enc->Transform(f.raw);
    ASSERT_TRUE(out.ok());
    ASSERT_EQ(out->cat_hot_ids.size(), out->num_categorical());
    ASSERT_EQ(out->cross_hot_ids.size(), out->num_pairs());
    EXPECT_EQ(out->cat_hot_ids, manifest->meta.cat_hot_ids);
    EXPECT_EQ(out->cross_hot_ids, manifest->meta.cross_hot_ids);
    std::filesystem::remove_all(dir);
  }
}

// Triple keys pack three encoded ids into 21 bits each; a field with more
// ids is refused by the fit, naming the triple and the field, instead of
// aborting per row. 2^21 hashed buckets give that size without a 2M-row
// input.
TEST(FittedEncoderTest, TripleOverTooWideFieldReturnsOutOfRange) {
  Fixture f = MakeFixture(400);
  f.opts.hashed = true;
  f.opts.hash_hot_values = 4;
  f.opts.hash_buckets = size_t{1} << 21;
  f.opts.triples = {{0, 1, 2}};
  auto enc = FitOn(f);
  ASSERT_EQ(enc.status().code(), StatusCode::kOutOfRange);
  EXPECT_NE(enc.status().message().find("triple {0,1,2}"), std::string::npos)
      << enc.status().message();
  EXPECT_NE(enc.status().message().find("field 0"), std::string::npos)
      << enc.status().message();
  // One bucket fewer still fits: ids stay below 2^21.
  f.opts.hash_buckets = (size_t{1} << 21) - 1 - 4;
  EXPECT_TRUE(FitOn(f).ok());
}

// Hashed ids are 1 + hot + bucket and must stay int32; an id space past
// that would wrap to negative ids.
TEST(FittedEncoderTest, HashedFitRejectsIdSpaceBeyondInt32) {
  Fixture f = MakeFixture(100);
  f.opts.hashed = true;
  f.opts.hash_hot_values = 16;
  for (const size_t buckets : {size_t{0}, size_t{1} << 31}) {
    f.opts.hash_buckets = buckets;
    EXPECT_EQ(FitOn(f).status().code(), StatusCode::kInvalidArgument)
        << buckets << " buckets";
  }
  f.opts.hash_buckets = (size_t{1} << 31) - 2 - 16;
  f.opts.build_cross = false;
  EXPECT_TRUE(FitOn(f).ok());
}

TEST(FittedEncoderTest, LoadRejectsGarbage) {
  const std::string path = testing::TempPath("garbage_enc.bin");
  std::ofstream(path) << "nope";
  EXPECT_FALSE(FittedEncoder::Load(path).ok());
}

// Every truncation and a seeded sweep of single-byte flips of saved v2
// files (exact and hashed, with triples and hot ids) parse as a non-OK
// status — never an abort, an exception or a read past the buffer. The
// variants are parsed from memory; the saved file itself makes one round
// trip through Load.
TEST(FittedEncoderTest, LoadRejectsEveryTruncationAndByteFlip) {
  Fixture f = MakeFixture(200);
  f.opts.triples = {{0, 1, 2}};
  f.opts.freq_stats_topk = 4;
  const std::string path = testing::TempPath("torture_enc.bin");
  const std::string resaved = testing::TempPath("torture_enc_resaved.bin");
  Rng rng(2024);
  for (const bool hashed : {false, true}) {
    SCOPED_TRACE(hashed ? "hashed" : "exact");
    f.opts.hashed = hashed;
    f.opts.hash_hot_values = 4;
    f.opts.hash_buckets = 16;
    auto enc = FitOn(f);
    ASSERT_TRUE(enc.ok());
    ASSERT_TRUE(enc->Save(path).ok());
    const std::string bytes = ReadBytes(path);
    auto loaded = FittedEncoder::Load(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ASSERT_TRUE(loaded->Save(resaved).ok());
    EXPECT_EQ(ReadBytes(resaved), bytes);
    for (size_t len = 0; len < bytes.size(); ++len) {
      ASSERT_FALSE(
          FittedEncoder::Parse(std::string_view(bytes).substr(0, len), path)
              .ok())
          << "truncated to " << len;
    }
    for (int i = 0; i < 400; ++i) {
      std::string flipped = bytes;
      const size_t at = rng.UniformInt(flipped.size());
      flipped[at] = static_cast<char>(
          flipped[at] ^ static_cast<char>(1 + rng.UniformInt(255)));
      ASSERT_FALSE(FittedEncoder::Parse(flipped, path).ok()) << "byte " << at;
    }
    // A flip past the magic and version is a CRC mismatch.
    std::string flipped = bytes;
    flipped[bytes.size() / 2] ^= 0x10;
    EXPECT_EQ(FittedEncoder::Parse(flipped, path).status().code(),
              StatusCode::kCorruption);
  }
}

// Counts are checked against the schema and the bytes left even when the
// CRC matches, so a crafted file cannot drive a huge allocation.
TEST(FittedEncoderTest, LoadRejectsCraftedCountsWithValidCrc) {
  Fixture f = MakeFixture(200);
  auto enc = FitOn(f);
  ASSERT_TRUE(enc.ok());
  const std::string path = testing::TempPath("crafted_enc.bin");
  ASSERT_TRUE(enc->Save(path).ok());
  const std::string bytes = ReadBytes(path);

  // Offset of the first vocabulary's count word: header, schema,
  // options and pair flag, the (empty) triple vector and the min-max
  // vector.
  size_t first_vocab = 8 + 4;
  for (const FieldSpec& field : f.raw.schema.fields()) {
    first_vocab += 8 + field.name.size() + 1;
  }
  first_vocab += 1 + 8 + 8 + 1 + 8 + 8 + 8 * f.raw.schema.num_continuous();

  auto patch = [&](size_t offset, const void* v, size_t n) {
    std::string out = bytes;
    std::memcpy(out.data() + offset, v, n);
    const size_t body = out.size() - 4;
    const uint32_t crc = Crc32(out.data(), body);
    std::memcpy(out.data() + body, &crc, 4);
    WriteBytes(path, out);
    return FittedEncoder::Load(path).status();
  };
  const uint32_t huge32 = 0xffffffffu;
  const uint64_t huge64 = uint64_t{1} << 62;
  const uint8_t bad_type = 7;
  EXPECT_EQ(patch(8, &huge32, 4).code(), StatusCode::kCorruption);
  EXPECT_EQ(patch(8 + 4 + 8 + f.raw.schema.field(0).name.size(), &bad_type, 1)
                .code(),
            StatusCode::kCorruption);
  EXPECT_EQ(patch(first_vocab, &huge64, 8).code(), StatusCode::kCorruption);
  // An unpatched re-sign loads.
  EXPECT_TRUE(patch(0, bytes.data(), 4).ok());
}

TEST(FittedEncoderTest, EmptyFitRowsRejected) {
  Fixture f = MakeFixture();
  MaterializedRowSource rows(&f.raw);
  EXPECT_FALSE(FittedEncoder::Fit(&rows, 0, f.opts).ok());
  EXPECT_FALSE(EncodeDataset(f.raw, {}, f.opts).ok());
}

TEST(VocabItemsTest, RoundTrip) {
  Vocab v;
  for (int64_t x : {100, 100, 100, 200, 200, 300}) v.Add(x);
  v.Finalize(2);
  Vocab rebuilt = Vocab::FromItems(v.Items());
  for (int64_t x : {100, 200, 300, 999}) {
    EXPECT_EQ(v.Encode(x), rebuilt.Encode(x));
  }
  EXPECT_EQ(v.size(), rebuilt.size());
}

}  // namespace
}  // namespace optinter

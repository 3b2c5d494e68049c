// Golden bits of the encoders' output: FNV-1a hashes of the encoded ids,
// the normalized continuous values' bit patterns, every vocabulary-size
// vector and the frequency-stats hot-id lists, for three inputs:
//
//   * the in-RAM exact encode of the tiny profile on its shuffled train
//     split, with pair crosses and the triples {0,1,2} and {1,2,3}
//     (TinyDataWithTriples, the memorized-triple golden's dataset);
//   * exact StreamEncodeToShards of the tiny profile, read back with
//     StreamingReader::Materialize;
//   * hashed StreamEncodeToShards (16 hot values, 256 buckets — the
//     streamed-training determinism test's shards), plus its collision
//     counts.
//
// Encoding is integer work plus one subtract/divide/clamp per continuous
// value, so the bits do not depend on the kernel backend, thread count or
// build configuration. A change that claims to keep the encodings must
// leave these unmoved; re-record only for a change meant to move them, by
// pasting the printed "encode golden:" lines.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "data/stream_encode.h"
#include "data/stream_reader.h"
#include "golden_util.h"
#include "synth/profiles.h"
#include "synth/stream_source.h"
#include "test_data.h"

namespace optinter {
namespace {

using testing::Fnv1a;
using testing::kFnvBasis;

template <typename T>
uint64_t HashVector(const std::vector<T>& v, uint64_t h = kFnvBasis) {
  const uint64_t n = v.size();
  h = Fnv1a(&n, sizeof(n), h);
  return Fnv1a(v.data(), v.size() * sizeof(T), h);
}

struct EncodeFingerprint {
  uint64_t cat_ids = 0;
  uint64_t cross_ids = 0;
  uint64_t triple_ids = 0;
  uint64_t cont_bits = 0;
  uint64_t vocab_sizes = 0;  // cat, cross and triple vocab sizes
  uint64_t hot_ids = 0;      // cat_hot_ids then cross_hot_ids

  bool operator==(const EncodeFingerprint&) const = default;
};

EncodeFingerprint Fingerprint(const EncodedDataset& d) {
  EncodeFingerprint fp;
  fp.cat_ids = HashVector(d.cat_ids);
  fp.cross_ids = HashVector(d.cross_ids);
  fp.triple_ids = HashVector(d.triple_ids);
  fp.cont_bits = HashVector(d.cont_values);
  fp.vocab_sizes = HashVector(
      d.triple_vocab_sizes,
      HashVector(d.cross_vocab_sizes, HashVector(d.cat_vocab_sizes)));
  uint64_t h = kFnvBasis;
  for (const auto* lists : {&d.cat_hot_ids, &d.cross_hot_ids}) {
    const uint64_t n = lists->size();
    h = Fnv1a(&n, sizeof(n), h);
    for (const std::vector<int32_t>& ids : *lists) h = HashVector(ids, h);
  }
  fp.hot_ids = h;
  return fp;
}

std::string Line(const char* name, const EncodeFingerprint& fp) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "{\"%s\", {0x%016" PRIx64 "ull, 0x%016" PRIx64
                "ull, 0x%016" PRIx64 "ull, 0x%016" PRIx64 "ull, 0x%016" PRIx64
                "ull, 0x%016" PRIx64 "ull}},",
                name, fp.cat_ids, fp.cross_ids, fp.triple_ids, fp.cont_bits,
                fp.vocab_sizes, fp.hot_ids);
  return buf;
}

struct EncodeGolden {
  const char* name;
  EncodeFingerprint fp;
};

// Recorded with the three separate fits (EncodeDataset +
// BuildCrossFeatures/BuildTripleCrossFeatures, and StreamEncodeToShards'
// own vocabulary code) before they were merged into FittedEncoder.
const std::vector<EncodeGolden> kEncodeGoldens = {
    {"in_ram_exact_triples",
     {0x674c7456ca9c6c3cull, 0x028a762ae3d4b0cbull, 0x1dab57764bc744feull,
      0x7d3ed2ef81b2ccd9ull, 0xc541bd23be18b013ull, 0x9bf96a47a490e78eull}},
    {"streamed_exact",
     {0x674c7456ca9c6c3cull, 0x19fb76c746091acdull, 0xa8c7f832281a39c5ull,
      0x2e8537a422393c5cull, 0x51f69ff42a25431bull, 0xff954432e74d2adbull}},
    {"streamed_hashed",
     {0x2e9881cefdc4cfceull, 0x7bc591523e0550a9ull, 0xa8c7f832281a39c5ull,
      0x2e8537a422393c5cull, 0xd08548d66410097cull, 0xda0ab61128f4fa43ull}},
};

void ExpectGolden(const char* name, const EncodedDataset& data) {
  const EncodeFingerprint fp = Fingerprint(data);
  const std::string line = Line(name, fp);
  std::printf("encode golden: %s\n", line.c_str());
  const EncodeGolden* want = nullptr;
  for (const EncodeGolden& g : kEncodeGoldens) {
    if (std::string(name) == g.name) want = &g;
  }
  ASSERT_NE(want, nullptr) << "no encode golden recorded for " << name;
  EXPECT_TRUE(fp == want->fp) << "bits moved\n  got:  " << line
                              << "\n  want: " << Line(name, want->fp);
}

// Streams the tiny profile into a fresh shard directory and reads it back.
EncodedDataset StreamTiny(const std::string& name,
                          const StreamEncodeOptions& opts,
                          StreamEncodeStats* stats) {
  const std::string dir = testing::TempPath(name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  SynthRowSource rows(TinyConfig());
  auto encoded = StreamEncodeToShards(&rows, dir, opts);
  CHECK(encoded.ok()) << encoded.status().ToString();
  *stats = *encoded;
  auto reader = StreamingReader::Open(dir);
  CHECK(reader.ok()) << reader.status().ToString();
  auto data = (*reader)->Materialize();
  CHECK(data.ok()) << data.status().ToString();
  std::filesystem::remove_all(dir);
  return std::move(data).value();
}

TEST(EncodeGoldenTest, InRamExactWithPairsAndTriples) {
  ExpectGolden("in_ram_exact_triples", testing::TinyDataWithTriples());
}

TEST(EncodeGoldenTest, StreamedExact) {
  StreamEncodeOptions opts;
  opts.build_cross = true;
  opts.rows_per_shard = 1024;
  opts.cat_min_count = 2;
  opts.cross_min_count = 2;
  StreamEncodeStats stats;
  const EncodedDataset data = StreamTiny("encode_golden_exact", opts, &stats);
  EXPECT_EQ(stats.cat_hash.hashed_rows + stats.cat_hash.hot_rows, 0u);
  ExpectGolden("streamed_exact", data);
}

TEST(EncodeGoldenTest, StreamedHashed) {
  StreamEncodeOptions opts;
  opts.hashed = true;
  opts.build_cross = true;
  opts.hash_hot_values = 16;
  opts.hash_buckets = 256;
  opts.rows_per_shard = 1024;
  StreamEncodeStats stats;
  const EncodedDataset data =
      StreamTiny("encode_golden_hashed", opts, &stats);
  std::printf(
      "encode golden: hashed stats cat {%zu, %zu, %zu} cross {%zu, %zu, "
      "%zu}\n",
      stats.cat_hash.hashed_rows, stats.cat_hash.collision_rows,
      stats.cat_hash.hot_rows, stats.cross_hash.hashed_rows,
      stats.cross_hash.collision_rows, stats.cross_hash.hot_rows);
  // Every tiny categorical value fits in the 16-value hot set; 256
  // buckets are few enough that cross values collide.
  EXPECT_EQ(stats.cat_hash.hashed_rows, 0u);
  EXPECT_EQ(stats.cat_hash.collision_rows, 0u);
  EXPECT_EQ(stats.cat_hash.hot_rows, 36000u);
  EXPECT_EQ(stats.cross_hash.hashed_rows, 29019u);
  EXPECT_EQ(stats.cross_hash.collision_rows, 2524u);
  EXPECT_EQ(stats.cross_hash.hot_rows, 60981u);
  ExpectGolden("streamed_hashed", data);
}

}  // namespace
}  // namespace optinter

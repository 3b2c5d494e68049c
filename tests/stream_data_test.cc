// Torture tests for the out-of-core data layer: shard format round-trips,
// corrupt-shard detection (truncation, bit flips, garbage appends, swapped
// files, mangled manifests — each at randomized offsets), the streaming
// reader's residency bound and fail-clean batch contract, exact-mode
// stream-encode parity with the in-RAM encoder, and the hash-trick
// encoder's statistical guarantees.

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/encoder.h"
#include "data/hash_encoder.h"
#include "data/shard_format.h"
#include "data/stream_encode.h"
#include "data/stream_reader.h"
#include "synth/generator.h"
#include "synth/profiles.h"
#include "test_data.h"

namespace optinter {
namespace {

using testing::PoolGuard;
using testing::SharedTinyData;

// Fresh empty directory under the test temp root.
std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempPath(name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// Writes the shared tiny dataset (with cross features) as shards.
std::string WriteTinyShards(const std::string& name,
                            size_t rows_per_shard = 512) {
  const std::string dir = FreshDir(name);
  const Status st =
      WriteShardedDataset(SharedTinyData().data, dir, rows_per_shard);
  CHECK_OK(st);
  return dir;
}

size_t FileSize(const std::string& path) {
  return static_cast<size_t>(std::filesystem::file_size(path));
}

void TruncateFile(const std::string& path, size_t new_size) {
  std::filesystem::resize_file(path, new_size);
}

void FlipBitAt(const std::string& path, size_t byte_offset, int bit) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(static_cast<std::streamoff>(byte_offset));
  char c = 0;
  f.read(&c, 1);
  c = static_cast<char>(c ^ (1 << bit));
  f.seekp(static_cast<std::streamoff>(byte_offset));
  f.write(&c, 1);
}

void AppendGarbage(const std::string& path, size_t n, Rng* rng) {
  std::ofstream f(path, std::ios::app | std::ios::binary);
  for (size_t i = 0; i < n; ++i) {
    const char c = static_cast<char>(rng->UniformInt(256));
    f.write(&c, 1);
  }
}

// A batch fill over `rows` must fail with a message containing
// `expect_substr`, and must leave the destination with zero rows — the
// fail-clean contract: a batch is never half-filled.
void ExpectFillFails(StreamingReader* reader, const std::vector<size_t>& rows,
                     const std::string& expect_substr) {
  EncodedDataset dst;
  const Status st = reader->FillBatch(rows.data(), rows.size(), &dst);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find(expect_substr), std::string::npos)
      << "message was: " << st.ToString();
  EXPECT_EQ(dst.num_rows, 0u);
  EXPECT_TRUE(dst.cat_ids.empty());
  EXPECT_TRUE(dst.labels.empty());
}

// ---------------------------------------------------------------------------
// Round trips
// ---------------------------------------------------------------------------

TEST(ShardFormatTest, MaterializeRoundTripsBitExactly) {
  const EncodedDataset& src = SharedTinyData().data;
  const std::string dir = WriteTinyShards("shard_roundtrip");
  auto reader = StreamingReader::Open(dir);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  auto copy = (*reader)->Materialize();
  ASSERT_TRUE(copy.ok()) << copy.status().ToString();

  EXPECT_EQ(copy->num_rows, src.num_rows);
  EXPECT_EQ(copy->cat_ids, src.cat_ids);
  EXPECT_EQ(copy->cross_ids, src.cross_ids);
  EXPECT_EQ(copy->triple_ids, src.triple_ids);
  EXPECT_EQ(copy->cont_values, src.cont_values);
  EXPECT_EQ(copy->labels, src.labels);
  EXPECT_EQ(copy->cat_vocab_sizes, src.cat_vocab_sizes);
  EXPECT_EQ(copy->cross_vocab_sizes, src.cross_vocab_sizes);
}

TEST(ShardFormatTest, FillBatchCopiesArbitraryRows) {
  const EncodedDataset& src = SharedTinyData().data;
  const std::string dir = WriteTinyShards("shard_fillbatch");
  auto reader = StreamingReader::Open(dir);
  ASSERT_TRUE(reader.ok());

  // Rows scattered across shards, out of order, with repeats.
  const std::vector<size_t> rows = {5, 1000, 3, src.num_rows - 1, 513, 5};
  EncodedDataset dst;
  ASSERT_TRUE((*reader)->FillBatch(rows.data(), rows.size(), &dst).ok());
  ASSERT_EQ(dst.num_rows, rows.size());
  EXPECT_EQ(dst.cat_vocab_sizes, src.cat_vocab_sizes);
  for (size_t k = 0; k < rows.size(); ++k) {
    const size_t r = rows[k];
    for (size_t f = 0; f < src.num_categorical(); ++f) {
      EXPECT_EQ(dst.cat(k, f), src.cat(r, f));
    }
    for (size_t p = 0; p < src.num_pairs(); ++p) {
      EXPECT_EQ(dst.cross(k, p), src.cross(r, p));
    }
    for (size_t c = 0; c < src.num_continuous(); ++c) {
      EXPECT_EQ(dst.cont(k, c), src.cont(r, c));
    }
    EXPECT_EQ(dst.label(k), src.label(r));
  }
}

TEST(ShardFormatTest, MetaDatasetCarriesSchemaAndVocabs) {
  const EncodedDataset& src = SharedTinyData().data;
  const std::string dir = WriteTinyShards("shard_meta");
  auto reader = StreamingReader::Open(dir);
  ASSERT_TRUE(reader.ok());
  const EncodedDataset& meta = (*reader)->meta();
  EXPECT_EQ(meta.num_rows, src.num_rows);
  EXPECT_EQ(meta.cat_vocab_sizes, src.cat_vocab_sizes);
  EXPECT_EQ(meta.cross_vocab_sizes, src.cross_vocab_sizes);
  EXPECT_EQ(meta.num_categorical(), src.num_categorical());
  EXPECT_TRUE(meta.cat_ids.empty());  // metadata only, no payload
}

TEST(ShardFormatTest, OutOfRangeRowRejected) {
  const std::string dir = WriteTinyShards("shard_oob");
  auto reader = StreamingReader::Open(dir);
  ASSERT_TRUE(reader.ok());
  ExpectFillFails(reader->get(), {(*reader)->num_rows()}, "outside dataset");
}

// ---------------------------------------------------------------------------
// Corruption torture: every mutation at randomized offsets must surface a
// clean, actionable error and never a partial batch.
// ---------------------------------------------------------------------------

TEST(ShardTortureTest, TruncationAtRandomOffsetsDetected) {
  Rng rng(101);
  for (int trial = 0; trial < 4; ++trial) {
    const std::string dir = WriteTinyShards("torture_trunc");
    const size_t shard = 1 + rng.UniformInt(3);
    const std::string path = ShardPath(dir, shard);
    const size_t size = FileSize(path);
    TruncateFile(path, rng.UniformInt(size));

    auto reader = StreamingReader::Open(dir);
    ASSERT_TRUE(reader.ok());  // manifest is intact; shards validate lazily
    const std::vector<size_t> rows = {shard * 512 + rng.UniformInt(512)};
    ExpectFillFails(reader->get(), rows, "truncated");
  }
}

TEST(ShardTortureTest, PayloadBitFlipsFailCrc) {
  Rng rng(202);
  for (int trial = 0; trial < 4; ++trial) {
    const std::string dir = WriteTinyShards("torture_flip");
    const size_t shard = rng.UniformInt(4);
    const std::string path = ShardPath(dir, shard);
    const size_t payload_bytes = FileSize(path) - kShardHeaderBytes;
    FlipBitAt(path, kShardHeaderBytes + rng.UniformInt(payload_bytes),
              static_cast<int>(rng.UniformInt(8)));

    auto reader = StreamingReader::Open(dir);
    ASSERT_TRUE(reader.ok());
    const std::vector<size_t> rows = {shard * 512 + rng.UniformInt(512)};
    ExpectFillFails(reader->get(), rows, "CRC");
  }
}

TEST(ShardTortureTest, GarbageAppendDetected) {
  Rng rng(303);
  const std::string dir = WriteTinyShards("torture_append");
  AppendGarbage(ShardPath(dir, 2), 1 + rng.UniformInt(4096), &rng);
  auto reader = StreamingReader::Open(dir);
  ASSERT_TRUE(reader.ok());
  ExpectFillFails(reader->get(), {2 * 512 + 7}, "garbage appended");
}

TEST(ShardTortureTest, CorruptHeaderMagicDetected) {
  Rng rng(404);
  const std::string dir = WriteTinyShards("torture_magic");
  FlipBitAt(ShardPath(dir, 0), rng.UniformInt(8),
            static_cast<int>(rng.UniformInt(8)));
  auto reader = StreamingReader::Open(dir);
  ASSERT_TRUE(reader.ok());
  ExpectFillFails(reader->get(), {3}, "not a shard file");
}

TEST(ShardTortureTest, SwappedShardFileDetected) {
  const std::string dir = WriteTinyShards("torture_swap");
  // shard_00000 replaced by a copy of shard_00001: valid file, valid
  // schema, wrong position.
  std::filesystem::copy_file(ShardPath(dir, 1), ShardPath(dir, 0),
                             std::filesystem::copy_options::overwrite_existing);
  auto reader = StreamingReader::Open(dir);
  ASSERT_TRUE(reader.ok());
  ExpectFillFails(reader->get(), {3}, "shard index");
}

TEST(ShardTortureTest, ForeignDatasetShardDetected) {
  // A shard from a dataset with identical layout (same row width, so the
  // size check passes) but different vocabulary metadata dropped into
  // this directory must fail the schema-hash check.
  const std::string dir = WriteTinyShards("torture_foreign");
  const std::string other_dir = FreshDir("torture_foreign_other");
  EncodedDataset foreign = SharedTinyData().data;
  foreign.cat_vocab_sizes[0] += 1;
  CHECK_OK(WriteShardedDataset(foreign, other_dir, 512));
  std::filesystem::copy_file(ShardPath(other_dir, 1), ShardPath(dir, 1),
                             std::filesystem::copy_options::overwrite_existing);
  auto reader = StreamingReader::Open(dir);
  ASSERT_TRUE(reader.ok());
  ExpectFillFails(reader->get(), {512 + 9}, "schema");
}

TEST(ShardTortureTest, ManifestBitFlipRejectedUpFront) {
  Rng rng(505);
  for (int trial = 0; trial < 4; ++trial) {
    const std::string dir = WriteTinyShards("torture_manifest");
    const std::string path = ManifestPath(dir);
    FlipBitAt(path, rng.UniformInt(FileSize(path)),
              static_cast<int>(rng.UniformInt(8)));
    // Any manifest mutation must be caught by Open (CRC or field checks).
    auto reader = StreamingReader::Open(dir);
    EXPECT_FALSE(reader.ok());
  }
}

TEST(ShardTortureTest, MissingShardFileFailsCleanly) {
  const std::string dir = WriteTinyShards("torture_missing");
  std::filesystem::remove(ShardPath(dir, 3));
  auto reader = StreamingReader::Open(dir);
  ASSERT_TRUE(reader.ok());
  ExpectFillFails(reader->get(), {3 * 512}, "shard_00003.bin");
}

TEST(ShardTortureTest, BatcherSurfacesMidEpochCorruptionWithoutPartialData) {
  // Corrupt the last shard; a window-shuffled epoch (one block per shard)
  // must deliver only full, valid batches before failing, then stick in
  // the failed state.
  const std::string dir = WriteTinyShards("torture_midepoch");
  const size_t num_rows = SharedTinyData().data.num_rows;
  const size_t last_shard = (num_rows - 1) / 512;
  Rng rng(606);
  FlipBitAt(ShardPath(dir, last_shard),
            kShardHeaderBytes + rng.UniformInt(64), 3);

  auto reader = StreamingReader::Open(dir);
  ASSERT_TRUE(reader.ok());
  StreamingBatcher::Options bo;
  bo.batch_size = 100;
  bo.order = StreamingBatcher::Order::kWindowShuffle;
  bo.seed = 7;
  StreamingBatcher batcher(reader->get(), 0, num_rows, bo);
  batcher.StartEpoch();
  size_t rows_delivered = 0;
  for (;;) {
    Batch b = batcher.Next();
    if (b.size == 0) break;
    // Every delivered batch is fully valid: it comes before the first
    // batch that reads the corrupt shard (full batches only, never a
    // partial fill).
    EXPECT_EQ(b.size, 100u);
    rows_delivered += b.size;
  }
  EXPECT_FALSE(batcher.status().ok());
  EXPECT_LT(rows_delivered, num_rows);
  // Sticky: restarting the epoch does not clear the failure.
  batcher.StartEpoch();
  EXPECT_EQ(batcher.Next().size, 0u);
  EXPECT_FALSE(batcher.status().ok());
}

// ---------------------------------------------------------------------------
// Residency bound
// ---------------------------------------------------------------------------

TEST(StreamingReaderTest, LruEvictionHoldsResidencyBound) {
  const std::string dir = WriteTinyShards("residency");
  StreamingReader::Options opts;
  opts.max_resident_shards = 2;
  auto reader = StreamingReader::Open(dir, opts);
  ASSERT_TRUE(reader.ok());
  const size_t num_rows = (*reader)->num_rows();
  EncodedDataset dst;
  // One-row batches marching through every shard, twice (second pass
  // re-maps evicted shards).
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t r = 0; r < num_rows; r += 512) {
      ASSERT_TRUE((*reader)->FillBatch(&r, 1, &dst).ok());
      EXPECT_LE((*reader)->resident_shards(), 2u);
    }
  }
}

// ---------------------------------------------------------------------------
// Stream encode: exact mode must reproduce the in-RAM encoder bit-for-bit
// ---------------------------------------------------------------------------

// A zero-block shuffle window has no rows to shuffle; the batcher refuses
// it at construction, naming the option, instead of failing on the first
// epoch's shuffle.
TEST(StreamingBatcherDeathTest, ZeroWindowBlocksNamesTheOption) {
  auto reader = StreamingReader::Open(WriteTinyShards("zero_window"));
  ASSERT_TRUE(reader.ok());
  StreamingBatcher::Options bo;
  bo.batch_size = 64;
  bo.order = StreamingBatcher::Order::kWindowShuffle;
  bo.window_blocks = 0;
  EXPECT_DEATH(
      {
        StreamingBatcher batcher(reader->get(), 0, (*reader)->num_rows(), bo);
        batcher.StartEpoch();
      },
      "window_blocks must be >= 1");
}

// The bytes of row `r` of `data`: ids, continuous values and label.
std::string RowPayload(const EncodedDataset& data, size_t r) {
  std::string out;
  auto put = [&out, r](const auto& values, size_t width) {
    out.append(reinterpret_cast<const char*>(values.data() + r * width),
               width * sizeof(values[0]));
  };
  put(data.cat_ids, data.num_categorical());
  if (data.has_cross()) put(data.cross_ids, data.num_pairs());
  put(data.cont_values, data.num_continuous());
  put(data.labels, 1);
  return out;
}

// Each window-shuffled epoch over a reader yields every row of its range
// exactly once (payloads compared as a multiset against Materialize()),
// two epochs differ in order, and the reader stays within its resident
// bound. A one-thread pool runs one fill at a time, and one fill pins at
// most two shards, so a bound of 2 is never overshot.
TEST(StreamingBatcherTest, WindowShuffleEpochCoversRangeOnce) {
  PoolGuard guard;
  ThreadPool::SetGlobalThreads(1);
  StreamingReader::Options ro;
  ro.max_resident_shards = 2;
  auto reader = StreamingReader::Open(WriteTinyShards("window_cover"), ro);
  ASSERT_TRUE(reader.ok());
  auto all = (*reader)->Materialize();
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  // Neither end on a shard boundary.
  const size_t begin = 700;
  const size_t end = all->num_rows - 300;
  std::vector<std::string> expected;
  for (size_t r = begin; r < end; ++r) expected.push_back(RowPayload(*all, r));
  std::sort(expected.begin(), expected.end());

  StreamingBatcher::Options bo;
  bo.batch_size = 100;
  bo.order = StreamingBatcher::Order::kWindowShuffle;
  bo.seed = 9;
  bo.window_blocks = 2;
  StreamingBatcher batcher(reader->get(), begin, end, bo);
  std::vector<std::vector<std::string>> epochs(2);
  for (std::vector<std::string>& seen : epochs) {
    batcher.StartEpoch();
    for (Batch b = batcher.Next(); b.size > 0; b = batcher.Next()) {
      for (size_t k = 0; k < b.size; ++k) {
        seen.push_back(RowPayload(*b.data, b.row(k)));
      }
      EXPECT_LE((*reader)->resident_shards(), ro.max_resident_shards);
    }
    ASSERT_TRUE(batcher.status().ok()) << batcher.status().ToString();
  }
  EXPECT_NE(epochs[0], epochs[1]);
  for (std::vector<std::string>& seen : epochs) {
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(seen, expected);
  }
}

TEST(StreamEncodeTest, ExactModeMatchesInRamEncoderBitwise) {
  SynthConfig cfg = TinyConfig();
  cfg.num_rows = 3000;
  const RawDataset raw = GenerateSynthetic(cfg);

  const std::string dir = FreshDir("streamenc_exact");
  StreamEncodeOptions opts;
  opts.fit_fraction = 0.7;
  opts.build_cross = true;
  opts.rows_per_shard = 700;
  opts.cat_min_count = 2;
  opts.cross_min_count = 2;
  MaterializedRowSource source(&raw);
  auto stats = StreamEncodeToShards(&source, dir, opts);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->rows, raw.num_rows);

  // In-RAM reference: fit on the same prefix rows.
  std::vector<size_t> fit_rows(stats->fit_rows);
  std::iota(fit_rows.begin(), fit_rows.end(), 0);
  auto reference = EncodeDataset(raw, fit_rows, opts);
  ASSERT_TRUE(reference.ok());

  auto reader = StreamingReader::Open(dir);
  ASSERT_TRUE(reader.ok());
  auto streamed = (*reader)->Materialize();
  ASSERT_TRUE(streamed.ok());

  EXPECT_EQ(streamed->cat_ids, reference->cat_ids);
  EXPECT_EQ(streamed->cat_vocab_sizes, reference->cat_vocab_sizes);
  EXPECT_EQ(streamed->cross_ids, reference->cross_ids);
  EXPECT_EQ(streamed->cross_vocab_sizes, reference->cross_vocab_sizes);
  EXPECT_EQ(streamed->cont_values, reference->cont_values);
  EXPECT_EQ(streamed->labels, reference->labels);
  EXPECT_EQ(streamed->cat_hot_ids, reference->cat_hot_ids);
  EXPECT_EQ(streamed->cross_hot_ids, reference->cross_hot_ids);
}

// ---------------------------------------------------------------------------
// Hash-trick encoder
// ---------------------------------------------------------------------------

// The hash is persisted in encoded datasets, so its values are pinned
// forever: any change to ShardStableHash64 silently re-buckets every
// hashed dataset on disk.
TEST(HashEncoderTest, GoldenHashValuesPinned) {
  EXPECT_EQ(ShardStableHash64(0, 0), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(ShardStableHash64(1, 0), 0x910a2dec89025cc1ULL);
  EXPECT_EQ(ShardStableHash64(42, 7), 0xcbbd05c7de73a889ULL);
  EXPECT_EQ(ShardStableHash64(0xdeadbeefULL, 123), 0x0190345d136600baULL);
}

TEST(HashEncoderTest, HotValuesGetCollisionFreeIds) {
  HashEncoderOptions opts;
  opts.hot_values = 8;
  opts.num_buckets = 16;
  HashedVocab vocab(opts);
  // Heavy values 0..7, plus a long singleton tail.
  for (uint64_t v = 0; v < 8; ++v) {
    for (int i = 0; i < 100; ++i) vocab.Observe(v);
  }
  for (uint64_t v = 1000; v < 1200; ++v) vocab.Observe(v);
  vocab.Finalize();

  EXPECT_EQ(vocab.num_hot(), 8u);
  std::set<int32_t> hot_ids;
  for (uint64_t v = 0; v < 8; ++v) {
    EXPECT_TRUE(vocab.IsHot(v));
    const int32_t id = vocab.Encode(v);
    EXPECT_GE(id, 1);
    EXPECT_LE(id, 8);
    hot_ids.insert(id);
  }
  EXPECT_EQ(hot_ids.size(), 8u);  // pairwise distinct: no collisions
  // Tail values land strictly above the hot range.
  EXPECT_GT(vocab.Encode(1000), 8);
}

TEST(HashEncoderTest, EncodeIsDeterministicAndInRange) {
  HashEncoderOptions opts;
  opts.hot_values = 4;
  opts.num_buckets = 32;
  opts.salt = 99;
  HashedVocab vocab(opts);
  for (uint64_t v = 0; v < 4; ++v) {
    for (int i = 0; i < 10; ++i) vocab.Observe(v);
  }
  vocab.Finalize();
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.NextUint64();
    const int32_t id = vocab.Encode(v);
    EXPECT_EQ(id, vocab.Encode(v));
    EXPECT_GE(id, 1);
    EXPECT_LT(static_cast<size_t>(id), vocab.vocab_size());
  }
}

TEST(HashEncoderTest, CollisionRateMatchesAnalyticBound) {
  // V distinct values, one row each, into B shared buckets (no hot set).
  // Expected colliding rows = V - E[occupied] with
  // E[occupied] = B * (1 - (1 - 1/B)^V) — the balls-in-bins bound the
  // header documents. A sound hash should land near it.
  const size_t B = 512;
  const size_t V = 512;
  HashEncoderOptions opts;
  opts.hot_values = 0;
  opts.num_buckets = B;
  HashedVocab vocab(opts);
  vocab.Finalize();
  BucketCollisionTracker tracker(vocab);
  HashEncodeStats stats;
  Rng rng(12345);
  for (size_t i = 0; i < V; ++i) {
    const uint64_t v = rng.NextUint64();
    tracker.Record(vocab.Encode(v), v, &stats);
  }
  ASSERT_EQ(stats.hashed_rows, V);
  const double expected_occupied =
      static_cast<double>(B) *
      (1.0 - std::pow(1.0 - 1.0 / static_cast<double>(B),
                      static_cast<double>(V)));
  const double expected_collisions = static_cast<double>(V) - expected_occupied;
  EXPECT_GT(static_cast<double>(stats.collision_rows),
            0.6 * expected_collisions);
  EXPECT_LT(static_cast<double>(stats.collision_rows),
            1.4 * expected_collisions);
}

TEST(HashEncoderTest, RepeatedRowsOfOneValueNeverCountAsCollisions) {
  HashEncoderOptions opts;
  opts.hot_values = 0;
  opts.num_buckets = 8;
  HashedVocab vocab(opts);
  vocab.Finalize();
  BucketCollisionTracker tracker(vocab);
  HashEncodeStats stats;
  for (int i = 0; i < 100; ++i) {
    tracker.Record(vocab.Encode(77), 77, &stats);
  }
  EXPECT_EQ(stats.hashed_rows, 100u);
  EXPECT_EQ(stats.collision_rows, 0u);
}

TEST(StreamEncodeTest, HashedModeBoundsVocabsAndCountsEveryValue) {
  SynthConfig cfg = TinyConfig();
  cfg.num_rows = 2000;
  const RawDataset raw = GenerateSynthetic(cfg);
  const std::string dir = FreshDir("streamenc_hashed");
  StreamEncodeOptions opts;
  opts.hashed = true;
  opts.hash_hot_values = 16;
  opts.hash_buckets = 64;
  opts.rows_per_shard = 700;
  MaterializedRowSource source(&raw);
  auto stats = StreamEncodeToShards(&source, dir, opts);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  auto reader = StreamingReader::Open(dir);
  ASSERT_TRUE(reader.ok());
  const EncodedDataset& meta = (*reader)->meta();
  for (const size_t vs : meta.cat_vocab_sizes) {
    EXPECT_LE(vs, 1 + 16 + 64u);  // 1 OOV + hot + buckets, regardless of
                                  // the raw field's cardinality
  }
  // Every encoded categorical value was routed through the hot set or a
  // bucket, and both are accounted.
  EXPECT_EQ(stats->cat_hash.hot_rows + stats->cat_hash.hashed_rows,
            stats->rows * raw.schema.num_categorical());
}

}  // namespace
}  // namespace optinter

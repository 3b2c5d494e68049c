// Sharded fixed-width binary dataset format (DESIGN.md §10).
//
// A shard directory holds one MANIFEST file plus N fixed-width shard
// files ("shard_00000.bin", ...). The manifest is self-describing —
// magic, version, schema (field names/types), per-field vocabulary
// sizes, row counts, and a per-shard payload CRC — and is itself
// CRC-protected, so a reader can validate everything up front (two-pass
// validate-then-read, the same contract as the checkpoint loader).
//
// Shard payloads are row-major fixed-width records:
//
//   [cat ids   : i32 × num_categorical]
//   [cross ids : i32 × num_pairs]        (only when the manifest has
//                                         cross vocabularies)
//   [triple ids: i32 × num_triples]      (only with triple vocabularies)
//   [cont      : f32 × num_continuous]
//   [label     : f32]
//
// i.e. exactly the per-row slice of an EncodedDataset, so shards mmap
// straight into batch buffers with no decode step. Every shard except the
// last holds exactly `rows_per_shard` rows; global row id r lives in
// shard r / rows_per_shard at row r % rows_per_shard.
//
// All integers are little-endian host layout (the substrate's other
// serialized artifacts share this assumption).

#pragma once

#include <array>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"
#include "data/schema.h"

namespace optinter {

/// CRC-32 (IEEE 802.3, reflected 0xEDB88320) over `len` bytes, chainable
/// through `seed` (pass the previous return value to extend).
uint32_t Crc32(const void* data, size_t len, uint32_t seed = 0);

/// File-format constants. Bump kShardFormatVersion on any layout change.
inline constexpr uint64_t kManifestMagic = 0x314d5346524e4954ULL;  // "TINRFSM1"
inline constexpr uint64_t kShardMagic = 0x3144485352544e49ULL;     // "INTRSHD1"
inline constexpr uint32_t kShardFormatVersion = 1;
/// Tag of the optional frequency-stats manifest section ("FRQSTAT1").
/// Written between the shard table and the manifest CRC when the dataset
/// carries per-field hot-id stats; older manifests simply omit it.
inline constexpr uint64_t kManifestFreqStatsTag = 0x3154415453515246ULL;
/// Byte offset of a shard file's payload (header size); multiple of 4 so
/// mmapped i32/f32 rows stay naturally aligned.
inline constexpr size_t kShardHeaderBytes = 40;

/// Everything about a sharded dataset except the rows: the schema and the
/// fitted vocabulary sizes models need for construction.
struct ShardDatasetMeta {
  DatasetSchema schema;
  std::vector<size_t> cat_vocab_sizes;
  /// Per canonical pair; empty = no cross features in the rows.
  std::vector<size_t> cross_vocab_sizes;
  std::vector<std::array<size_t, 3>> triple_fields;
  std::vector<size_t> triple_vocab_sizes;

  /// Optional per-field frequency-ranked hot-id lists (most frequent
  /// first): EncodedDataset::cat_hot_ids / cross_hot_ids carried through
  /// the manifest so a metadata-only streaming dataset resolves the same
  /// frequency-tiered embedding plans as the in-RAM encode it came from.
  /// Serialized as a tagged optional section; SchemaHash excludes them,
  /// so stats never invalidate existing shard pairings.
  std::vector<std::vector<int32_t>> cat_hot_ids;
  std::vector<std::vector<int32_t>> cross_hot_ids;

  bool has_cross() const { return !cross_vocab_sizes.empty(); }
  size_t num_triples() const { return triple_fields.size(); }

  /// Fixed per-row byte width implied by the schema.
  size_t RowWidthBytes() const;

  /// Deterministic hash over the schema + vocab metadata. Stored in the
  /// manifest and in every shard header; readers recompute and compare so
  /// shards cannot be paired with a foreign manifest.
  uint64_t SchemaHash() const;

  /// Builds the metadata from an in-RAM encoded dataset.
  static ShardDatasetMeta FromDataset(const EncodedDataset& data);

  /// Stamps a metadata-only EncodedDataset (schema + vocab sizes, no row
  /// payload): what StreamingReader::meta() hands to model constructors,
  /// and the template for batch buffers.
  EncodedDataset MetaDataset(size_t num_rows) const;
};

/// Per-shard entry of the manifest.
struct ShardInfo {
  uint64_t row_count = 0;
  uint64_t payload_bytes = 0;
  uint32_t payload_crc = 0;
};

/// Parsed, validated manifest.
struct ShardManifest {
  ShardDatasetMeta meta;
  uint64_t num_rows = 0;
  uint64_t rows_per_shard = 0;
  std::vector<ShardInfo> shards;
};

/// "shard_00042.bin".
std::string ShardFileName(size_t index);
/// `dir`/MANIFEST.
std::string ManifestPath(const std::string& dir);
/// `dir`/ShardFileName(index).
std::string ShardPath(const std::string& dir, size_t index);

/// Streaming writer: append rows one at a time; rows are buffered per
/// shard and flushed with their CRC as each shard fills. Finish() writes
/// the manifest — a directory without a manifest is unreadable by design,
/// so an interrupted encode never yields a half-valid dataset.
class ShardWriter {
 public:
  /// `dir` must exist (the encoder CLI creates it). Fails if a manifest
  /// is already present.
  static Result<std::unique_ptr<ShardWriter>> Open(
      const std::string& dir, ShardDatasetMeta meta, size_t rows_per_shard);

  ~ShardWriter();

  /// Appends one row. `cross`/`triple` may be null when the meta has no
  /// cross/triple vocabularies; `cont` may be null with zero continuous
  /// fields. Pointers reference num_pairs / num_triples / num_continuous
  /// elements respectively.
  Status Append(const int32_t* cat, const int32_t* cross,
                const int32_t* triple, const float* cont, float label);

  /// Flushes the tail shard and writes the manifest. Must be called
  /// exactly once; no Append after.
  Status Finish();

  size_t rows_written() const { return rows_written_; }

 private:
  ShardWriter(std::string dir, ShardDatasetMeta meta, size_t rows_per_shard);

  Status FlushShard();

  std::string dir_;
  ShardDatasetMeta meta_;
  size_t rows_per_shard_;
  size_t row_width_;
  uint64_t schema_hash_;
  std::vector<uint8_t> buffer_;  // current shard payload
  size_t buffered_rows_ = 0;
  size_t rows_written_ = 0;
  std::vector<ShardInfo> shards_;
  bool finished_ = false;
};

/// One-call convenience: writes an in-RAM encoded dataset (including any
/// built cross/triple features) as a shard directory.
Status WriteShardedDataset(const EncodedDataset& data, const std::string& dir,
                           size_t rows_per_shard);

/// Reads + fully validates a manifest: magic, version, structural sanity,
/// manifest CRC, recomputed schema hash, and row-count consistency.
/// Error messages name the file and the failing field.
Result<ShardManifest> ReadShardManifest(const std::string& dir);

}  // namespace optinter

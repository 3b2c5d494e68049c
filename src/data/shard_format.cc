#include "data/shard_format.h"

#include <cstring>

#include "common/string_util.h"

namespace optinter {

namespace {

// ---------------------------------------------------------------------------
// CRC-32 (software, table-driven; the format's integrity needs are modest
// and this keeps the reader dependency-free).

const uint32_t* Crc32Table() {
  static const auto table = [] {
    static uint32_t t[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

// ---------------------------------------------------------------------------
// Little byte-buffer codec for the manifest. The manifest is small (a few
// KB), so it is serialized into memory and written in one shot; the reader
// loads the whole file and decodes with bounds checks so a truncated or
// garbage manifest produces a clean error, never a crash.

class ByteWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(v); }
  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    Raw(s.data(), s.size());
  }
  void Raw(const void* p, size_t n) {
    const auto* b = static_cast<const uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }
  const std::vector<uint8_t>& bytes() const { return buf_; }

 private:
  std::vector<uint8_t> buf_;
};

class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size, std::string file)
      : data_(data), size_(size), file_(std::move(file)) {}

  Status U8(uint8_t* v) { return Raw(v, 1, "u8"); }
  Status U32(uint32_t* v) { return Raw(v, sizeof(*v), "u32"); }
  Status U64(uint64_t* v) { return Raw(v, sizeof(*v), "u64"); }
  Status Str(std::string* s) {
    uint32_t len = 0;
    OPTINTER_RETURN_NOT_OK(U32(&len));
    if (len > size_ - pos_) return Truncated("string");
    s->assign(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
    return Status::OK();
  }
  Status Raw(void* p, size_t n, const char* what) {
    if (n > size_ - pos_) return Truncated(what);
    std::memcpy(p, data_ + pos_, n);
    pos_ += n;
    return Status::OK();
  }
  size_t pos() const { return pos_; }
  size_t remaining() const { return size_ - pos_; }

 private:
  Status Truncated(const char* what) const {
    return Status::Corruption(StrFormat(
        "'%s' is truncated: needed a %s at offset %zu but the file has "
        "%zu bytes",
        file_.c_str(), what, pos_, size_));
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  std::string file_;
};

Status ReadWholeFile(const std::string& path, std::vector<uint8_t>* out) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::IoError("cannot open '" + path + "'");
  const std::streamsize size = in.tellg();
  in.seekg(0);
  out->resize(static_cast<size_t>(size));
  if (size > 0 &&
      !in.read(reinterpret_cast<char*>(out->data()), size)) {
    return Status::IoError("failed reading '" + path + "'");
  }
  return Status::OK();
}

Status WriteWholeFile(const std::string& path,
                      const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot create '" + path + "'");
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) return Status::IoError("failed writing '" + path + "'");
  return Status::OK();
}

bool FileExists(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return static_cast<bool>(in);
}

void HashBytes(uint64_t* h, const void* p, size_t n) {
  const auto* b = static_cast<const uint8_t*>(p);
  for (size_t i = 0; i < n; ++i) {
    *h ^= b[i];
    *h *= 1099511628211ULL;  // FNV-1a 64
  }
}

void HashU64(uint64_t* h, uint64_t v) { HashBytes(h, &v, sizeof(v)); }

}  // namespace

uint32_t Crc32(const void* data, size_t len, uint32_t seed) {
  const uint32_t* table = Crc32Table();
  uint32_t c = seed ^ 0xFFFFFFFFu;
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < len; ++i) {
    c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

size_t ShardDatasetMeta::RowWidthBytes() const {
  const size_t ints = schema.num_categorical() +
                      (has_cross() ? schema.num_pairs() : 0) +
                      num_triples();
  const size_t floats = schema.num_continuous() + 1;  // + label
  return ints * sizeof(int32_t) + floats * sizeof(float);
}

uint64_t ShardDatasetMeta::SchemaHash() const {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
  HashU64(&h, schema.num_fields());
  for (const auto& f : schema.fields()) {
    HashU64(&h, f.name.size());
    HashBytes(&h, f.name.data(), f.name.size());
    HashU64(&h, f.type == FieldType::kCategorical ? 0 : 1);
  }
  HashU64(&h, cat_vocab_sizes.size());
  for (size_t v : cat_vocab_sizes) HashU64(&h, v);
  HashU64(&h, cross_vocab_sizes.size());
  for (size_t v : cross_vocab_sizes) HashU64(&h, v);
  HashU64(&h, triple_fields.size());
  for (const auto& t : triple_fields) {
    HashU64(&h, t[0]);
    HashU64(&h, t[1]);
    HashU64(&h, t[2]);
  }
  for (size_t v : triple_vocab_sizes) HashU64(&h, v);
  return h;
}

ShardDatasetMeta ShardDatasetMeta::FromDataset(const EncodedDataset& data) {
  ShardDatasetMeta meta;
  meta.schema = data.schema;
  meta.cat_vocab_sizes = data.cat_vocab_sizes;
  if (data.has_cross()) meta.cross_vocab_sizes = data.cross_vocab_sizes;
  if (data.has_triples()) {
    meta.triple_fields = data.triple_fields;
    meta.triple_vocab_sizes = data.triple_vocab_sizes;
  }
  meta.cat_hot_ids = data.cat_hot_ids;
  meta.cross_hot_ids = data.cross_hot_ids;
  return meta;
}

EncodedDataset ShardDatasetMeta::MetaDataset(size_t num_rows) const {
  EncodedDataset out;
  out.schema = schema;
  out.num_rows = num_rows;
  out.cat_vocab_sizes = cat_vocab_sizes;
  out.cross_vocab_sizes = cross_vocab_sizes;
  out.triple_fields = triple_fields;
  out.triple_vocab_sizes = triple_vocab_sizes;
  out.cat_hot_ids = cat_hot_ids;
  out.cross_hot_ids = cross_hot_ids;
  return out;
}

std::string ShardFileName(size_t index) {
  return StrFormat("shard_%05zu.bin", index);
}

std::string ManifestPath(const std::string& dir) { return dir + "/MANIFEST"; }

std::string ShardPath(const std::string& dir, size_t index) {
  return dir + "/" + ShardFileName(index);
}

// ---------------------------------------------------------------------------
// ShardWriter

ShardWriter::ShardWriter(std::string dir, ShardDatasetMeta meta,
                         size_t rows_per_shard)
    : dir_(std::move(dir)),
      meta_(std::move(meta)),
      rows_per_shard_(rows_per_shard),
      row_width_(meta_.RowWidthBytes()),
      schema_hash_(meta_.SchemaHash()) {
  buffer_.reserve(rows_per_shard_ * row_width_);
}

ShardWriter::~ShardWriter() = default;

Result<std::unique_ptr<ShardWriter>> ShardWriter::Open(
    const std::string& dir, ShardDatasetMeta meta, size_t rows_per_shard) {
  if (rows_per_shard == 0) {
    return Status::Invalid("rows_per_shard must be positive");
  }
  if (meta.schema.num_categorical() == 0) {
    return Status::Invalid("shard schema has no categorical fields");
  }
  if (meta.cat_vocab_sizes.size() != meta.schema.num_categorical()) {
    return Status::Invalid(StrFormat(
        "schema has %zu categorical fields but %zu vocab sizes",
        meta.schema.num_categorical(), meta.cat_vocab_sizes.size()));
  }
  if (meta.has_cross() &&
      meta.cross_vocab_sizes.size() != meta.schema.num_pairs()) {
    return Status::Invalid(StrFormat(
        "schema has %zu pairs but %zu cross vocab sizes",
        meta.schema.num_pairs(), meta.cross_vocab_sizes.size()));
  }
  if (meta.triple_vocab_sizes.size() != meta.triple_fields.size()) {
    return Status::Invalid(StrFormat(
        "meta has %zu triples but %zu triple vocab sizes",
        meta.triple_fields.size(), meta.triple_vocab_sizes.size()));
  }
  if (!meta.cat_hot_ids.empty() &&
      meta.cat_hot_ids.size() != meta.schema.num_categorical()) {
    return Status::Invalid(StrFormat(
        "meta has %zu categorical hot-id lists, schema implies 0 or %zu",
        meta.cat_hot_ids.size(), meta.schema.num_categorical()));
  }
  if (!meta.cross_hot_ids.empty() &&
      meta.cross_hot_ids.size() != meta.cross_vocab_sizes.size()) {
    return Status::Invalid(StrFormat(
        "meta has %zu cross hot-id lists, expected 0 or %zu",
        meta.cross_hot_ids.size(), meta.cross_vocab_sizes.size()));
  }
  if (FileExists(ManifestPath(dir))) {
    return Status::Invalid("'" + dir +
                           "' already holds a sharded dataset (MANIFEST "
                           "present); refusing to overwrite");
  }
  // Probe writability now so a bad path fails at Open, not mid-stream.
  {
    std::ofstream probe(ShardPath(dir, 0), std::ios::binary);
    if (!probe) {
      return Status::IoError("cannot create files in '" + dir +
                             "' (does the directory exist?)");
    }
  }
  return std::unique_ptr<ShardWriter>(
      new ShardWriter(dir, std::move(meta), rows_per_shard));
}

Status ShardWriter::Append(const int32_t* cat, const int32_t* cross,
                           const int32_t* triple, const float* cont,
                           float label) {
  CHECK(!finished_);
  const size_t old = buffer_.size();
  buffer_.resize(old + row_width_);
  uint8_t* p = buffer_.data() + old;
  auto put = [&p](const void* src, size_t n) {
    if (n > 0) std::memcpy(p, src, n);
    p += n;
  };
  put(cat, meta_.schema.num_categorical() * sizeof(int32_t));
  if (meta_.has_cross()) {
    CHECK(cross != nullptr);
    put(cross, meta_.schema.num_pairs() * sizeof(int32_t));
  }
  if (meta_.num_triples() > 0) {
    CHECK(triple != nullptr);
    put(triple, meta_.num_triples() * sizeof(int32_t));
  }
  put(cont, meta_.schema.num_continuous() * sizeof(float));
  put(&label, sizeof(float));
  ++buffered_rows_;
  ++rows_written_;
  if (buffered_rows_ == rows_per_shard_) {
    return FlushShard();
  }
  return Status::OK();
}

Status ShardWriter::FlushShard() {
  const size_t index = shards_.size();
  ShardInfo info;
  info.row_count = buffered_rows_;
  info.payload_bytes = buffer_.size();
  info.payload_crc = Crc32(buffer_.data(), buffer_.size());

  ByteWriter header;
  header.U64(kShardMagic);
  header.U32(kShardFormatVersion);
  header.U32(static_cast<uint32_t>(index));
  header.U64(schema_hash_);
  header.U64(info.row_count);
  header.U32(info.payload_crc);
  header.U32(0);  // reserved
  CHECK_EQ(header.bytes().size(), kShardHeaderBytes);

  std::ofstream out(ShardPath(dir_, index),
                    std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IoError("cannot create '" + ShardPath(dir_, index) + "'");
  }
  out.write(reinterpret_cast<const char*>(header.bytes().data()),
            static_cast<std::streamsize>(header.bytes().size()));
  out.write(reinterpret_cast<const char*>(buffer_.data()),
            static_cast<std::streamsize>(buffer_.size()));
  out.flush();
  if (!out) {
    return Status::IoError("failed writing '" + ShardPath(dir_, index) +
                           "'");
  }
  shards_.push_back(info);
  buffer_.clear();
  buffered_rows_ = 0;
  return Status::OK();
}

Status ShardWriter::Finish() {
  CHECK(!finished_);
  finished_ = true;
  if (buffered_rows_ > 0) {
    OPTINTER_RETURN_NOT_OK(FlushShard());
  }
  if (rows_written_ == 0) {
    return Status::Invalid("no rows written; refusing to finalize an empty "
                           "sharded dataset");
  }

  ByteWriter w;
  w.U64(kManifestMagic);
  w.U32(kShardFormatVersion);
  w.U32(static_cast<uint32_t>(meta_.schema.num_fields()));
  for (const auto& f : meta_.schema.fields()) {
    w.Str(f.name);
    w.U8(f.type == FieldType::kCategorical ? 0 : 1);
  }
  w.U64(meta_.cat_vocab_sizes.size());
  for (size_t v : meta_.cat_vocab_sizes) w.U64(v);
  w.U64(meta_.cross_vocab_sizes.size());
  for (size_t v : meta_.cross_vocab_sizes) w.U64(v);
  w.U64(meta_.triple_fields.size());
  for (size_t t = 0; t < meta_.triple_fields.size(); ++t) {
    w.U64(meta_.triple_fields[t][0]);
    w.U64(meta_.triple_fields[t][1]);
    w.U64(meta_.triple_fields[t][2]);
    w.U64(meta_.triple_vocab_sizes[t]);
  }
  w.U64(schema_hash_);
  w.U64(rows_written_);
  w.U64(rows_per_shard_);
  w.U64(row_width_);
  w.U64(shards_.size());
  for (const auto& s : shards_) {
    w.U64(s.row_count);
    w.U64(s.payload_bytes);
    w.U32(s.payload_crc);
  }
  // Optional frequency-stats section (tiered-embedding hot-id metadata).
  if (!meta_.cat_hot_ids.empty() || !meta_.cross_hot_ids.empty()) {
    w.U64(kManifestFreqStatsTag);
    auto write_stats = [&w](const std::vector<std::vector<int32_t>>& stats) {
      w.U64(stats.size());
      for (const auto& ids : stats) {
        w.U64(ids.size());
        for (int32_t id : ids) w.U32(static_cast<uint32_t>(id));
      }
    };
    write_stats(meta_.cat_hot_ids);
    write_stats(meta_.cross_hot_ids);
  }
  w.U32(Crc32(w.bytes().data(), w.bytes().size()));
  return WriteWholeFile(ManifestPath(dir_), w.bytes());
}

Status WriteShardedDataset(const EncodedDataset& data,
                           const std::string& dir, size_t rows_per_shard) {
  OPTINTER_ASSIGN_OR_RETURN(
      auto writer, ShardWriter::Open(dir, ShardDatasetMeta::FromDataset(data),
                                     rows_per_shard));
  const size_t num_cat = data.num_categorical();
  const size_t num_pairs = data.num_pairs();
  const size_t num_triples = data.num_triples();
  const size_t num_cont = data.num_continuous();
  for (size_t r = 0; r < data.num_rows; ++r) {
    OPTINTER_RETURN_NOT_OK(writer->Append(
        data.cat_ids.data() + r * num_cat,
        data.has_cross() ? data.cross_ids.data() + r * num_pairs : nullptr,
        data.has_triples() ? data.triple_ids.data() + r * num_triples
                           : nullptr,
        num_cont > 0 ? data.cont_values.data() + r * num_cont : nullptr,
        data.labels[r]));
  }
  return writer->Finish();
}

Result<ShardManifest> ReadShardManifest(const std::string& dir) {
  const std::string path = ManifestPath(dir);
  std::vector<uint8_t> bytes;
  OPTINTER_RETURN_NOT_OK(ReadWholeFile(path, &bytes));
  if (bytes.size() < sizeof(uint64_t) + 2 * sizeof(uint32_t)) {
    return Status::Corruption(StrFormat(
        "'%s' is too small to be a manifest (%zu bytes)", path.c_str(),
        bytes.size()));
  }
  // Trailing CRC covers everything before it; check first so every later
  // field can be trusted.
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, bytes.data() + bytes.size() - sizeof(uint32_t),
              sizeof(uint32_t));
  const uint32_t actual_crc =
      Crc32(bytes.data(), bytes.size() - sizeof(uint32_t));
  if (stored_crc != actual_crc) {
    return Status::Corruption(StrFormat(
        "'%s' failed its CRC check (stored 0x%08x, computed 0x%08x); the "
        "manifest is corrupt or truncated",
        path.c_str(), stored_crc, actual_crc));
  }

  ByteReader r(bytes.data(), bytes.size() - sizeof(uint32_t), path);
  uint64_t magic = 0;
  OPTINTER_RETURN_NOT_OK(r.U64(&magic));
  if (magic != kManifestMagic) {
    return Status::Corruption(StrFormat(
        "'%s' has magic 0x%016llx, expected 0x%016llx; not a shard "
        "manifest",
        path.c_str(), static_cast<unsigned long long>(magic),
        static_cast<unsigned long long>(kManifestMagic)));
  }
  uint32_t version = 0;
  OPTINTER_RETURN_NOT_OK(r.U32(&version));
  if (version != kShardFormatVersion) {
    return Status::Invalid(StrFormat(
        "'%s' is format version %u; this build reads version %u",
        path.c_str(), version, kShardFormatVersion));
  }

  ShardManifest m;
  uint32_t num_fields = 0;
  OPTINTER_RETURN_NOT_OK(r.U32(&num_fields));
  if (num_fields == 0 || num_fields > 1u << 20) {
    return Status::Corruption(StrFormat(
        "'%s' declares %u schema fields (implausible)", path.c_str(),
        num_fields));
  }
  std::vector<FieldSpec> specs;
  specs.reserve(num_fields);
  for (uint32_t f = 0; f < num_fields; ++f) {
    FieldSpec spec;
    OPTINTER_RETURN_NOT_OK(r.Str(&spec.name));
    uint8_t type = 0;
    OPTINTER_RETURN_NOT_OK(r.U8(&type));
    if (type > 1) {
      return Status::Corruption(StrFormat(
          "'%s': field '%s' has unknown type tag %u", path.c_str(),
          spec.name.c_str(), type));
    }
    spec.type = type == 0 ? FieldType::kCategorical : FieldType::kContinuous;
    specs.push_back(std::move(spec));
  }
  m.meta.schema = DatasetSchema(std::move(specs));

  auto read_sizes = [&](const char* what, std::vector<size_t>* out,
                        size_t expected) -> Status {
    uint64_t n = 0;
    OPTINTER_RETURN_NOT_OK(r.U64(&n));
    if (n != expected) {
      return Status::Corruption(StrFormat(
          "'%s' declares %llu %s vocab sizes, schema implies %zu",
          path.c_str(), static_cast<unsigned long long>(n), what, expected));
    }
    out->resize(n);
    for (uint64_t i = 0; i < n; ++i) {
      uint64_t v = 0;
      OPTINTER_RETURN_NOT_OK(r.U64(&v));
      (*out)[i] = static_cast<size_t>(v);
    }
    return Status::OK();
  };
  OPTINTER_RETURN_NOT_OK(read_sizes("categorical", &m.meta.cat_vocab_sizes,
                                    m.meta.schema.num_categorical()));
  {
    // Cross vocabularies are optional: either zero, or one per pair.
    uint64_t n = 0;
    OPTINTER_RETURN_NOT_OK(r.U64(&n));
    if (n != 0 && n != m.meta.schema.num_pairs()) {
      return Status::Corruption(StrFormat(
          "'%s' declares %llu cross vocab sizes, schema implies 0 or %zu",
          path.c_str(), static_cast<unsigned long long>(n),
          m.meta.schema.num_pairs()));
    }
    m.meta.cross_vocab_sizes.resize(n);
    for (uint64_t i = 0; i < n; ++i) {
      uint64_t v = 0;
      OPTINTER_RETURN_NOT_OK(r.U64(&v));
      m.meta.cross_vocab_sizes[i] = static_cast<size_t>(v);
    }
  }
  {
    uint64_t n = 0;
    OPTINTER_RETURN_NOT_OK(r.U64(&n));
    if (n > 1u << 20) {
      return Status::Corruption(StrFormat(
          "'%s' declares %llu triples (implausible)", path.c_str(),
          static_cast<unsigned long long>(n)));
    }
    m.meta.triple_fields.resize(n);
    m.meta.triple_vocab_sizes.resize(n);
    for (uint64_t t = 0; t < n; ++t) {
      for (int k = 0; k < 3; ++k) {
        uint64_t v = 0;
        OPTINTER_RETURN_NOT_OK(r.U64(&v));
        m.meta.triple_fields[t][k] = static_cast<size_t>(v);
      }
      uint64_t v = 0;
      OPTINTER_RETURN_NOT_OK(r.U64(&v));
      m.meta.triple_vocab_sizes[t] = static_cast<size_t>(v);
    }
  }

  uint64_t stored_hash = 0;
  OPTINTER_RETURN_NOT_OK(r.U64(&stored_hash));
  const uint64_t actual_hash = m.meta.SchemaHash();
  if (stored_hash != actual_hash) {
    return Status::Corruption(StrFormat(
        "'%s': stored schema hash 0x%016llx does not match the schema "
        "content (0x%016llx)",
        path.c_str(), static_cast<unsigned long long>(stored_hash),
        static_cast<unsigned long long>(actual_hash)));
  }

  OPTINTER_RETURN_NOT_OK(r.U64(&m.num_rows));
  OPTINTER_RETURN_NOT_OK(r.U64(&m.rows_per_shard));
  if (m.num_rows == 0) {
    return Status::Corruption("'" + path + "' declares zero rows");
  }
  if (m.rows_per_shard == 0) {
    return Status::Corruption("'" + path + "' declares zero rows per shard");
  }
  uint64_t row_width = 0;
  OPTINTER_RETURN_NOT_OK(r.U64(&row_width));
  if (row_width != m.meta.RowWidthBytes()) {
    return Status::Corruption(StrFormat(
        "'%s' declares row width %llu bytes, schema implies %zu",
        path.c_str(), static_cast<unsigned long long>(row_width),
        m.meta.RowWidthBytes()));
  }

  uint64_t num_shards = 0;
  OPTINTER_RETURN_NOT_OK(r.U64(&num_shards));
  const uint64_t expected_shards =
      (m.num_rows + m.rows_per_shard - 1) / m.rows_per_shard;
  if (num_shards != expected_shards) {
    return Status::Corruption(StrFormat(
        "'%s' declares %llu shards; %llu rows at %llu rows/shard implies "
        "%llu",
        path.c_str(), static_cast<unsigned long long>(num_shards),
        static_cast<unsigned long long>(m.num_rows),
        static_cast<unsigned long long>(m.rows_per_shard),
        static_cast<unsigned long long>(expected_shards)));
  }
  m.shards.resize(num_shards);
  uint64_t total_rows = 0;
  for (uint64_t s = 0; s < num_shards; ++s) {
    ShardInfo& info = m.shards[s];
    OPTINTER_RETURN_NOT_OK(r.U64(&info.row_count));
    OPTINTER_RETURN_NOT_OK(r.U64(&info.payload_bytes));
    OPTINTER_RETURN_NOT_OK(r.U32(&info.payload_crc));
    const uint64_t expected_rows = s + 1 < num_shards
                                       ? m.rows_per_shard
                                       : m.num_rows - s * m.rows_per_shard;
    if (info.row_count != expected_rows) {
      return Status::Corruption(StrFormat(
          "'%s': shard %llu declares %llu rows, expected %llu",
          path.c_str(), static_cast<unsigned long long>(s),
          static_cast<unsigned long long>(info.row_count),
          static_cast<unsigned long long>(expected_rows)));
    }
    if (info.payload_bytes != info.row_count * row_width) {
      return Status::Corruption(StrFormat(
          "'%s': shard %llu declares %llu payload bytes, %llu rows at "
          "%llu bytes/row implies %llu",
          path.c_str(), static_cast<unsigned long long>(s),
          static_cast<unsigned long long>(info.payload_bytes),
          static_cast<unsigned long long>(info.row_count),
          static_cast<unsigned long long>(row_width),
          static_cast<unsigned long long>(info.row_count * row_width)));
    }
    total_rows += info.row_count;
  }
  if (total_rows != m.num_rows) {
    return Status::Corruption(StrFormat(
        "'%s': shard row counts sum to %llu, manifest declares %llu",
        path.c_str(), static_cast<unsigned long long>(total_rows),
        static_cast<unsigned long long>(m.num_rows)));
  }
  // Optional tagged sections. Only the frequency-stats section exists
  // today; an unknown tag is corruption (not skippable — the CRC already
  // vouched for the bytes, so an unknown tag means a newer writer, and
  // silently dropping its data could change model behavior).
  if (r.remaining() > 0) {
    uint64_t tag = 0;
    OPTINTER_RETURN_NOT_OK(r.U64(&tag));
    if (tag != kManifestFreqStatsTag) {
      return Status::Corruption(StrFormat(
          "'%s' has an unknown optional section tag 0x%016llx",
          path.c_str(), static_cast<unsigned long long>(tag)));
    }
    auto read_stats = [&](const char* what,
                          std::vector<std::vector<int32_t>>* out,
                          const std::vector<size_t>& vocabs) -> Status {
      uint64_t n = 0;
      OPTINTER_RETURN_NOT_OK(r.U64(&n));
      if (n != 0 && n != vocabs.size()) {
        return Status::Corruption(StrFormat(
            "'%s': frequency-stats section has %llu %s hot-id lists, "
            "expected 0 or %zu",
            path.c_str(), static_cast<unsigned long long>(n), what,
            vocabs.size()));
      }
      out->resize(n);
      for (uint64_t f = 0; f < n; ++f) {
        uint64_t count = 0;
        OPTINTER_RETURN_NOT_OK(r.U64(&count));
        if (count > vocabs[f]) {
          return Status::Corruption(StrFormat(
              "'%s': %s field %llu lists %llu hot ids but its vocab has "
              "only %zu values",
              path.c_str(), what, static_cast<unsigned long long>(f),
              static_cast<unsigned long long>(count), vocabs[f]));
        }
        (*out)[f].resize(count);
        for (uint64_t i = 0; i < count; ++i) {
          uint32_t id = 0;
          OPTINTER_RETURN_NOT_OK(r.U32(&id));
          if (id >= vocabs[f]) {
            return Status::Corruption(StrFormat(
                "'%s': %s field %llu hot id %u is outside its vocab "
                "(size %zu)",
                path.c_str(), what, static_cast<unsigned long long>(f), id,
                vocabs[f]));
          }
          (*out)[f][i] = static_cast<int32_t>(id);
        }
      }
      return Status::OK();
    };
    OPTINTER_RETURN_NOT_OK(read_stats("categorical", &m.meta.cat_hot_ids,
                                      m.meta.cat_vocab_sizes));
    OPTINTER_RETURN_NOT_OK(read_stats("cross", &m.meta.cross_hot_ids,
                                      m.meta.cross_vocab_sizes));
  }
  if (r.remaining() != 0) {
    return Status::Corruption(StrFormat(
        "'%s' has %zu unexpected trailing bytes before its CRC",
        path.c_str(), r.remaining()));
  }
  return m;
}

}  // namespace optinter

#include "data/stream_reader.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <numeric>

#include "common/string_util.h"

namespace optinter {

// ---------------------------------------------------------------------------
// StreamingReader

StreamingReader::StreamingReader(std::string dir, ShardManifest manifest,
                                 Options options)
    : dir_(std::move(dir)),
      manifest_(std::move(manifest)),
      options_(options),
      meta_(manifest_.meta.MetaDataset(manifest_.num_rows)),
      row_width_(manifest_.meta.RowWidthBytes()),
      shards_(manifest_.shards.size()) {}

Result<std::unique_ptr<StreamingReader>> StreamingReader::Open(
    const std::string& dir, const Options& options) {
  if (options.max_resident_shards == 0) {
    return Status::Invalid("max_resident_shards must be positive");
  }
  OPTINTER_ASSIGN_OR_RETURN(auto manifest, ReadShardManifest(dir));
  return std::unique_ptr<StreamingReader>(
      new StreamingReader(dir, std::move(manifest), options));
}

StreamingReader::~StreamingReader() {
  for (MappedShard& s : shards_) {
    if (s.map_base != nullptr) {
      ::munmap(s.map_base, s.map_bytes);
    }
  }
}

size_t StreamingReader::resident_shards() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return resident_;
}

Status StreamingReader::MapAndValidateLocked(size_t index) {
  const std::string path = ShardPath(dir_, index);
  const ShardInfo& info = manifest_.shards[index];
  const size_t expected_bytes =
      kShardHeaderBytes + static_cast<size_t>(info.payload_bytes);

  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError("cannot open '" + path +
                           "' (missing shard file?)");
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IoError("fstat failed on '" + path + "'");
  }
  if (static_cast<size_t>(st.st_size) != expected_bytes) {
    ::close(fd);
    return Status::Corruption(StrFormat(
        "'%s' is %lld bytes, manifest expects %zu (truncated or "
        "garbage appended)",
        path.c_str(), static_cast<long long>(st.st_size), expected_bytes));
  }
  void* base =
      ::mmap(nullptr, expected_bytes, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (base == MAP_FAILED) {
    return Status::IoError("mmap failed on '" + path + "'");
  }

  const auto* bytes = static_cast<const uint8_t*>(base);
  auto read_u32 = [&](size_t off) {
    uint32_t v;
    std::memcpy(&v, bytes + off, sizeof(v));
    return v;
  };
  auto read_u64 = [&](size_t off) {
    uint64_t v;
    std::memcpy(&v, bytes + off, sizeof(v));
    return v;
  };
  auto fail = [&](Status st_out) {
    ::munmap(base, expected_bytes);
    return st_out;
  };

  // Header layout: magic u64, version u32, shard_index u32, schema_hash
  // u64, row_count u64, payload_crc u32, reserved u32 (DESIGN.md §10).
  if (read_u64(0) != kShardMagic) {
    return fail(Status::Corruption(
        "'" + path + "' has a bad magic number; not a shard file"));
  }
  if (read_u32(8) != kShardFormatVersion) {
    return fail(Status::Invalid(StrFormat(
        "'%s' is shard format version %u; this build reads version %u",
        path.c_str(), read_u32(8), kShardFormatVersion)));
  }
  if (read_u32(12) != index) {
    return fail(Status::Corruption(StrFormat(
        "'%s' declares shard index %u, expected %zu (file renamed or "
        "copied from elsewhere?)",
        path.c_str(), read_u32(12), index)));
  }
  if (read_u64(16) != manifest_.meta.SchemaHash()) {
    return fail(Status::Corruption(
        "'" + path +
        "' carries a different schema hash than the manifest; it belongs "
        "to another dataset"));
  }
  if (read_u64(24) != info.row_count) {
    return fail(Status::Corruption(StrFormat(
        "'%s' declares %llu rows, manifest expects %llu", path.c_str(),
        static_cast<unsigned long long>(read_u64(24)),
        static_cast<unsigned long long>(info.row_count))));
  }
  if (read_u32(32) != info.payload_crc) {
    return fail(Status::Corruption(StrFormat(
        "'%s' header CRC 0x%08x does not match the manifest's 0x%08x",
        path.c_str(), read_u32(32), info.payload_crc)));
  }

  MappedShard& shard = shards_[index];
  if (options_.verify_crc && !shard.verified) {
    const uint32_t crc =
        Crc32(bytes + kShardHeaderBytes, info.payload_bytes);
    if (crc != info.payload_crc) {
      return fail(Status::Corruption(StrFormat(
          "'%s' payload failed its CRC check (stored 0x%08x, computed "
          "0x%08x): the shard is corrupt",
          path.c_str(), info.payload_crc, crc)));
    }
  }
  shard.verified = true;
  shard.map_base = base;
  shard.map_bytes = expected_bytes;
  shard.payload = bytes + kShardHeaderBytes;
  ++resident_;
  return Status::OK();
}

void StreamingReader::EvictIfNeededLocked() {
  while (resident_ > options_.max_resident_shards) {
    size_t victim = shards_.size();
    uint64_t oldest = UINT64_MAX;
    for (size_t i = 0; i < shards_.size(); ++i) {
      const MappedShard& s = shards_[i];
      if (s.map_base != nullptr && s.pins == 0 && s.last_use < oldest) {
        oldest = s.last_use;
        victim = i;
      }
    }
    if (victim == shards_.size()) return;  // everything pinned: overshoot
    MappedShard& s = shards_[victim];
    ::munmap(s.map_base, s.map_bytes);
    s.map_base = nullptr;
    s.payload = nullptr;
    s.map_bytes = 0;
    --resident_;
  }
}

Result<const uint8_t*> StreamingReader::Pin(size_t index) {
  CHECK_LT(index, shards_.size());
  std::lock_guard<std::mutex> lock(mutex_);
  MappedShard& shard = shards_[index];
  if (shard.map_base == nullptr) {
    OPTINTER_RETURN_NOT_OK(MapAndValidateLocked(index));
  }
  ++shard.pins;
  shard.last_use = ++use_clock_;
  EvictIfNeededLocked();
  return shard.payload;
}

void StreamingReader::Unpin(size_t index) {
  std::lock_guard<std::mutex> lock(mutex_);
  CHECK_GT(shards_[index].pins, 0u);
  --shards_[index].pins;
}

namespace {

/// Sizes `dst` for an n-row batch-local payload, stamping schema/vocab
/// metadata from `meta` on first use. Capacity is retained across calls.
void ResizeBatchBuffer(const EncodedDataset& meta, size_t n,
                       EncodedDataset* dst) {
  if (dst->schema.num_fields() == 0) {
    dst->schema = meta.schema;
    dst->cat_vocab_sizes = meta.cat_vocab_sizes;
    dst->cross_vocab_sizes = meta.cross_vocab_sizes;
    dst->triple_fields = meta.triple_fields;
    dst->triple_vocab_sizes = meta.triple_vocab_sizes;
  }
  dst->num_rows = n;
  dst->cat_ids.resize(n * meta.schema.num_categorical());
  if (!meta.cross_vocab_sizes.empty()) {
    dst->cross_ids.resize(n * meta.schema.num_pairs());
  }
  if (!meta.triple_vocab_sizes.empty()) {
    dst->triple_ids.resize(n * meta.triple_fields.size());
  }
  dst->cont_values.resize(n * meta.schema.num_continuous());
  dst->labels.resize(n);
}

}  // namespace

Status StreamingReader::FillBatch(const size_t* rows, size_t n,
                                  EncodedDataset* dst) {
  ResizeBatchBuffer(meta_, n, dst);
  const size_t num_cat = meta_.schema.num_categorical();
  const size_t num_pairs =
      manifest_.meta.has_cross() ? meta_.schema.num_pairs() : 0;
  const size_t num_triples = manifest_.meta.num_triples();
  const size_t num_cont = meta_.schema.num_continuous();
  const size_t rps = manifest_.rows_per_shard;

  size_t pinned = shards_.size();  // sentinel: nothing pinned
  const uint8_t* payload = nullptr;
  auto bail = [&](Status st) {
    if (pinned != shards_.size()) Unpin(pinned);
    ResizeBatchBuffer(meta_, 0, dst);  // never hand out a partial batch
    return st;
  };

  for (size_t k = 0; k < n; ++k) {
    const size_t row = rows[k];
    if (row >= manifest_.num_rows) {
      return bail(Status::OutOfRange(StrFormat(
          "row %zu outside dataset of %llu rows", row,
          static_cast<unsigned long long>(manifest_.num_rows))));
    }
    const size_t shard = row / rps;
    if (shard != pinned) {
      auto p = Pin(shard);
      if (!p.ok()) return bail(p.status());
      if (pinned != shards_.size()) Unpin(pinned);
      pinned = shard;
      payload = *p;
    }
    const uint8_t* src = payload + (row % rps) * row_width_;
    std::memcpy(dst->cat_ids.data() + k * num_cat, src,
                num_cat * sizeof(int32_t));
    src += num_cat * sizeof(int32_t);
    if (num_pairs > 0) {
      std::memcpy(dst->cross_ids.data() + k * num_pairs, src,
                  num_pairs * sizeof(int32_t));
      src += num_pairs * sizeof(int32_t);
    }
    if (num_triples > 0) {
      std::memcpy(dst->triple_ids.data() + k * num_triples, src,
                  num_triples * sizeof(int32_t));
      src += num_triples * sizeof(int32_t);
    }
    if (num_cont > 0) {
      std::memcpy(dst->cont_values.data() + k * num_cont, src,
                  num_cont * sizeof(float));
      src += num_cont * sizeof(float);
    }
    std::memcpy(&dst->labels[k], src, sizeof(float));
  }
  if (pinned != shards_.size()) Unpin(pinned);
  return Status::OK();
}

Result<EncodedDataset> StreamingReader::Materialize() {
  EncodedDataset out = meta_;
  std::vector<size_t> rows(num_rows());
  std::iota(rows.begin(), rows.end(), size_t{0});
  OPTINTER_RETURN_NOT_OK(FillBatch(rows.data(), rows.size(), &out));
  return out;
}

// ---------------------------------------------------------------------------
// StreamingBatcher

StreamingBatcher::StreamingBatcher(StreamingReader* reader, size_t begin,
                                   size_t end, const Options& options)
    : reader_(reader), begin_(begin), end_(end), rng_(options.seed) {
  CHECK(reader != nullptr);
  CHECK_LE(begin_, end_);
  CHECK_LE(end_, reader->num_rows());
  CHECK_GT(options.batch_size, 0u);
  CHECK(options.order != Order::kWindowShuffle || options.window_blocks > 0)
      << "StreamingBatcher: Options::window_blocks must be >= 1 for "
         "Order::kWindowShuffle (got 0)";
  options_ = options;
  options_.prefetch_batches = std::max<size_t>(1, options.prefetch_batches);
  block_rows_ = options.block_rows != 0
                    ? options.block_rows
                    : static_cast<size_t>(reader->manifest().rows_per_shard);
  iota_rows_.resize(options_.batch_size);
  std::iota(iota_rows_.begin(), iota_rows_.end(), size_t{0});
  slots_.resize(options_.prefetch_batches + 1);
  for (auto& slot : slots_) {
    slot = std::make_unique<Slot>();
    // Stamp schema/vocab metadata now; fills only resize payload vectors.
    ResizeBatchBuffer(reader->meta(), 0, &slot->buffer);
  }
  if (options_.order == Order::kGlobalShuffle) {
    // The persistent permutation: StartEpoch reshuffles it in place, the
    // same cumulative scheme as the in-RAM Batcher.
    order_.resize(end_ - begin_);
    std::iota(order_.begin(), order_.end(), begin_);
  }
}

StreamingBatcher::~StreamingBatcher() {
  for (auto& slot : slots_) slot->group.Wait();
}

void StreamingBatcher::BuildEpochOrder() {
  switch (options_.order) {
    case Order::kGlobalShuffle:
      rng_.Shuffle(&order_);
      break;
    case Order::kWindowShuffle: {
      const size_t total = end_ - begin_;
      const size_t num_blocks = (total + block_rows_ - 1) / block_rows_;
      std::vector<size_t> blocks(num_blocks);
      for (size_t b = 0; b < num_blocks; ++b) blocks[b] = b;
      rng_.Shuffle(&blocks);
      order_.clear();
      order_.reserve(total);
      for (size_t b : blocks) {
        const size_t lo = begin_ + b * block_rows_;
        const size_t hi = std::min(lo + block_rows_, end_);
        for (size_t r = lo; r < hi; ++r) order_.push_back(r);
      }
      const size_t window_rows = options_.window_blocks * block_rows_;
      for (size_t w = 0; w < total; w += window_rows) {
        const size_t len = std::min(window_rows, total - w);
        // Fisher-Yates over the window, same scheme as Rng::Shuffle.
        for (size_t i = len - 1; i > 0; --i) {
          const size_t j = static_cast<size_t>(
              rng_.UniformInt(static_cast<uint64_t>(i + 1)));
          std::swap(order_[w + i], order_[w + j]);
        }
      }
      break;
    }
  }
}

void StreamingBatcher::ScheduleFill(size_t batch_index) {
  Slot* slot = slots_[batch_index % slots_.size()].get();
  const size_t start = batch_index * options_.batch_size;
  const size_t rows =
      std::min(options_.batch_size, order_.size() - start);
  slot->rows = rows;
  slot->status = Status::OK();
  const size_t* row_ids = order_.data() + start;
  ThreadPool::Global().Submit(
      [this, slot, row_ids, rows] {
        slot->status = reader_->FillBatch(row_ids, rows, &slot->buffer);
      },
      &slot->group);
}

void StreamingBatcher::StartEpoch() {
  // Join stragglers from a previous (possibly aborted) epoch before
  // touching the order array they read from.
  for (auto& slot : slots_) slot->group.Wait();
  epoch_open_ = false;
  if (!status_.ok()) return;  // sticky: a failed source stays failed

  BuildEpochOrder();
  num_batches_ =
      (order_.size() + options_.batch_size - 1) / options_.batch_size;
  next_return_ = 0;
  next_schedule_ = 0;
  epoch_open_ = true;
  const size_t ahead = std::min(options_.prefetch_batches, num_batches_);
  while (next_schedule_ < ahead) ScheduleFill(next_schedule_++);
}

Batch StreamingBatcher::Next() {
  Batch b;
  b.rows = iota_rows_.data();
  if (!epoch_open_ || next_return_ >= num_batches_) {
    epoch_open_ = false;
    return b;  // size 0: epoch end (or sticky error; see status())
  }
  const size_t idx = next_return_++;
  // Top up the prefetch window. The slot this lands in belonged to batch
  // idx-1, which the consumer finished with before calling Next() again
  // (BatchSource contract), and whose fill task was joined when it was
  // returned.
  if (next_schedule_ < num_batches_) ScheduleFill(next_schedule_++);

  Slot* slot = slots_[idx % slots_.size()].get();
  slot->group.Wait();
  if (!slot->status.ok()) {
    status_ = slot->status;
    epoch_open_ = false;
    return b;
  }
  b.data = &slot->buffer;
  b.size = slot->rows;
  return b;
}

}  // namespace optinter

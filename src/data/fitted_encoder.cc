#include "data/fitted_encoder.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>

#include "common/string_util.h"
#include "data/shard_format.h"

namespace optinter {

namespace {

constexpr char kMagic[4] = {'O', 'E', 'N', 'C'};
constexpr uint32_t kVersion = 2;
// Bytes of magic + version before the body, and of the trailing CRC.
constexpr size_t kHeaderBytes = sizeof(kMagic) + sizeof(uint32_t);
constexpr size_t kCrcBytes = sizeof(uint32_t);
// Triple keys pack each encoded field id into this many bits.
constexpr size_t kTripleIdBits = 21;
constexpr size_t kMaxIds = std::numeric_limits<int32_t>::max();

template <typename T>
void Put(std::string* out, const T& v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(T));
}

/// A u64 element count, then the elements.
template <typename T>
void PutVector(std::string* out, const std::vector<T>& v) {
  Put(out, static_cast<uint64_t>(v.size()));
  out->append(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(T));
}

/// Bounds-checked reads over the body of a loaded file: every read and
/// every element count is checked against the bytes left, so no count
/// from the file can drive an allocation or a read past its end.
class ByteReader {
 public:
  ByteReader(const char* data, size_t size) : p_(data), left_(size) {}

  template <typename T>
  bool Get(T* v) {
    if (left_ < sizeof(T)) return false;
    std::memcpy(v, p_, sizeof(T));
    p_ += sizeof(T);
    left_ -= sizeof(T);
    return true;
  }
  /// Reads PutVector output.
  template <typename T>
  bool GetVector(std::vector<T>* v) {
    uint64_t n = 0;
    if (!Get(&n) || n > left_ / sizeof(T)) return false;
    v->resize(n);
    if (n > 0) std::memcpy(v->data(), p_, n * sizeof(T));
    p_ += n * sizeof(T);
    left_ -= n * sizeof(T);
    return true;
  }
  size_t left() const { return left_; }

 private:
  const char* p_;
  size_t left_;
};

}  // namespace

void FittedEncoder::Column::Add(int64_t value) {
  if (hashed) {
    hashed->Observe(static_cast<uint64_t>(value));
  } else {
    exact.Add(value);
  }
}

std::vector<int32_t> FittedEncoder::Column::Finalize(size_t min_count,
                                                     size_t topk) {
  if (hashed) {
    // Misra-Gries places the hot set at ids 1..K, most frequent first.
    hashed->Finalize();
    std::vector<int32_t> ids(std::min(topk, hashed->num_hot()));
    for (size_t i = 0; i < ids.size(); ++i) {
      ids[i] = static_cast<int32_t>(i + 1);
    }
    return ids;
  }
  std::vector<size_t> counts;
  exact.Finalize(min_count, topk > 0 ? &counts : nullptr);
  // Rank by (count desc, id asc).
  std::vector<int32_t> ranked;
  for (size_t id = 0; id < counts.size(); ++id) {
    if (counts[id] > 0) ranked.push_back(static_cast<int32_t>(id));
  }
  std::sort(ranked.begin(), ranked.end(), [&](int32_t a, int32_t b) {
    const size_t ca = counts[static_cast<size_t>(a)];
    const size_t cb = counts[static_cast<size_t>(b)];
    return ca != cb ? ca > cb : a < b;
  });
  ranked.resize(std::min(ranked.size(), topk));
  return ranked;
}

FittedEncoder::HashCollisions::HashCollisions(const FittedEncoder& encoder) {
  CHECK(encoder.hashed());
  trackers.reserve(encoder.vocabs_.size());
  for (const Column& c : encoder.vocabs_) trackers.emplace_back(*c.hashed);
}

void FittedEncoder::Layout(bool build_cross,
                           std::vector<std::array<size_t, 3>> triples) {
  crosses_.clear();
  if (build_cross) {
    for (const auto& [i, j] : EnumeratePairs(schema_.num_categorical())) {
      crosses_.push_back({2, {i, j, 0}});
    }
  }
  num_pairs_ = crosses_.size();
  triples_ = std::move(triples);
  for (const auto& t : triples_) crosses_.push_back({3, t});
  vocabs_.assign(schema_.num_categorical() + crosses_.size(), Column{});
  if (hashed_) {
    for (size_t c = 0; c < vocabs_.size(); ++c) {
      vocabs_[c].hashed.emplace(HashOptions(c));
    }
  }
}

HashEncoderOptions FittedEncoder::HashOptions(size_t column) const {
  HashEncoderOptions ho;
  ho.hot_values = hash_hot_values_;
  ho.num_buckets = hash_buckets_;
  // Fields salt with their index, pair p with num_cat + p, and triples
  // continue after the full pair range whether or not pairs are built.
  const size_t first_triple = schema_.num_categorical() + num_pairs_;
  ho.salt = column < first_triple
                ? column
                : column - first_triple + schema_.num_categorical() +
                      schema_.num_pairs();
  return ho;
}

Status FittedEncoder::CheckTripleKeyRange() const {
  for (size_t t = 0; t < triples_.size(); ++t) {
    for (const size_t f : triples_[t]) {
      if (vocabs_[f].size() > (size_t{1} << kTripleIdBits)) {
        const size_t field = schema_.categorical_fields()[f];
        return Status::OutOfRange(StrFormat(
            "triple {%zu,%zu,%zu}: categorical field %zu ('%s') has %zu "
            "ids, but a triple key holds ids below 2^%zu",
            triples_[t][0], triples_[t][1], triples_[t][2], f,
            schema_.field(field).name.c_str(), vocabs_[f].size(),
            kTripleIdBits));
      }
    }
  }
  return Status::OK();
}

Result<FittedEncoder> FittedEncoder::Fit(RowSource* source, size_t n,
                                         const EncoderOptions& options) {
  CHECK(source != nullptr);
  if (n == 0) return Status::Invalid("fit needs at least one row");
  if (n > source->num_rows()) {
    return Status::OutOfRange(StrFormat("fit on %zu rows of a %zu-row source",
                                        n, source->num_rows()));
  }
  FittedEncoder enc;
  enc.schema_ = source->schema();
  const size_t num_cat = enc.schema_.num_categorical();
  const size_t num_cont = enc.schema_.num_continuous();
  for (const auto& t : options.triples) {
    if (!(t[0] < t[1] && t[1] < t[2] && t[2] < num_cat)) {
      return Status::Invalid("triples must satisfy i < j < k < #cate");
    }
  }
  // Hashed ids run to hash_hot_values + hash_buckets and must fit int32.
  if (options.hashed &&
      (options.hash_buckets == 0 || options.hash_hot_values > kMaxIds ||
       options.hash_buckets > kMaxIds - 1 - options.hash_hot_values)) {
    return Status::Invalid(
        StrFormat("hashed encoding needs 1 to 2^31 - 2 - %zu buckets, got %zu",
                  options.hash_hot_values, options.hash_buckets));
  }
  enc.hashed_ = options.hashed;
  enc.hash_hot_values_ = options.hash_hot_values;
  enc.hash_buckets_ = options.hash_buckets;
  enc.Layout(options.build_cross, options.triples);
  const size_t topk = options.freq_stats_topk;

  std::vector<int64_t> cat(num_cat);
  std::vector<float> cont(std::max<size_t>(num_cont, 1));
  float label = 0.0f;

  // Pass 1: categorical vocabularies + continuous min-max (paper Eq. 20).
  enc.cont_stats_.assign(num_cont, {std::numeric_limits<float>::max(),
                                    std::numeric_limits<float>::lowest()});
  OPTINTER_RETURN_NOT_OK(source->Restart());
  for (size_t r = 0; r < n; ++r) {
    OPTINTER_RETURN_NOT_OK(source->NextRow(cat.data(), cont.data(), &label));
    for (size_t f = 0; f < num_cat; ++f) enc.vocabs_[f].Add(cat[f]);
    for (size_t f = 0; f < num_cont; ++f) {
      enc.cont_stats_[f].min = std::min(enc.cont_stats_[f].min, cont[f]);
      enc.cont_stats_[f].max = std::max(enc.cont_stats_[f].max, cont[f]);
    }
  }
  for (size_t f = 0; f < num_cat; ++f) {
    auto hot = enc.vocabs_[f].Finalize(options.cat_min_count, topk);
    if (topk > 0) enc.cat_hot_ids_.push_back(std::move(hot));
  }
  OPTINTER_RETURN_NOT_OK(enc.CheckTripleKeyRange());
  if (enc.crosses_.empty()) return enc;

  // Pass 2: cross vocabularies over the encoded field ids.
  std::vector<int32_t> ids(num_cat);
  OPTINTER_RETURN_NOT_OK(source->Restart());
  for (size_t r = 0; r < n; ++r) {
    OPTINTER_RETURN_NOT_OK(source->NextRow(cat.data(), cont.data(), &label));
    for (size_t f = 0; f < num_cat; ++f) {
      ids[f] = enc.vocabs_[f].Encode(cat[f]);
    }
    for (size_t x = 0; x < enc.crosses_.size(); ++x) {
      enc.vocabs_[num_cat + x].Add(enc.crosses_[x].Key(ids.data()));
    }
  }
  for (size_t x = 0; x < enc.crosses_.size(); ++x) {
    // Triples carry no hot-id metadata.
    const size_t cross_topk = x < enc.num_pairs_ ? topk : 0;
    auto hot = enc.vocabs_[num_cat + x].Finalize(options.cross_min_count,
                                                 cross_topk);
    if (cross_topk > 0) enc.cross_hot_ids_.push_back(std::move(hot));
  }
  return enc;
}

void FittedEncoder::EncodeRow(const int64_t* cat, const float* cont,
                              int32_t* cat_ids, int32_t* cross_ids,
                              int32_t* triple_ids, float* cont_out,
                              HashCollisions* collisions) const {
  const size_t num_cat = schema_.num_categorical();
  for (size_t f = 0; f < num_cat; ++f) {
    cat_ids[f] = vocabs_[f].Encode(cat[f]);
    if (collisions != nullptr) {
      collisions->trackers[f].Record(cat_ids[f], static_cast<uint64_t>(cat[f]),
                                     &collisions->cat);
    }
  }
  for (size_t x = 0; x < crosses_.size(); ++x) {
    const int64_t key = crosses_[x].Key(cat_ids);
    const int32_t id = vocabs_[num_cat + x].Encode(key);
    if (x < num_pairs_) {
      cross_ids[x] = id;
    } else {
      triple_ids[x - num_pairs_] = id;
    }
    if (collisions != nullptr) {
      collisions->trackers[num_cat + x].Record(
          id, static_cast<uint64_t>(key), &collisions->cross);
    }
  }
  for (size_t f = 0; f < cont_stats_.size(); ++f) {
    const float range = cont_stats_[f].max - cont_stats_[f].min;
    const float v =
        range > 0.0f ? (cont[f] - cont_stats_[f].min) / range : 0.0f;
    cont_out[f] = std::clamp(v, 0.0f, 1.0f);
  }
}

EncodedDataset FittedEncoder::Metadata() const {
  EncodedDataset out;
  out.schema = schema_;
  const size_t num_cat = schema_.num_categorical();
  for (size_t f = 0; f < num_cat; ++f) {
    out.cat_vocab_sizes.push_back(vocabs_[f].size());
  }
  for (size_t x = 0; x < crosses_.size(); ++x) {
    (x < num_pairs_ ? out.cross_vocab_sizes : out.triple_vocab_sizes)
        .push_back(vocabs_[num_cat + x].size());
  }
  out.triple_fields = triples_;
  out.cat_hot_ids = cat_hot_ids_;
  out.cross_hot_ids = cross_hot_ids_;
  return out;
}

Result<EncodedDataset> FittedEncoder::Transform(const RawDataset& raw) const {
  if (raw.schema.num_fields() != schema_.num_fields()) {
    return Status::Invalid("schema field count mismatch");
  }
  for (size_t f = 0; f < schema_.num_fields(); ++f) {
    if (raw.schema.field(f).name != schema_.field(f).name ||
        raw.schema.field(f).type != schema_.field(f).type) {
      return Status::Invalid("schema mismatch at field '" +
                             schema_.field(f).name + "'");
    }
  }
  if (raw.num_rows == 0) return Status::Invalid("empty dataset");
  OPTINTER_RETURN_NOT_OK(raw.Validate());

  const size_t n = raw.num_rows;
  const size_t num_cat = schema_.num_categorical();
  const size_t num_cont = schema_.num_continuous();
  const size_t num_triples = triples_.size();
  EncodedDataset out = Metadata();
  out.num_rows = n;
  out.labels = raw.labels;
  out.cat_ids.resize(n * num_cat);
  out.cross_ids.resize(n * num_pairs_);
  out.triple_ids.resize(n * num_triples);
  out.cont_values.resize(n * num_cont);
  for (size_t r = 0; r < n; ++r) {
    EncodeRow(raw.cat_values.data() + r * num_cat,
              raw.cont_values.data() + r * num_cont,
              out.cat_ids.data() + r * num_cat,
              out.cross_ids.data() + r * num_pairs_,
              out.triple_ids.data() + r * num_triples,
              out.cont_values.data() + r * num_cont);
  }
  return out;
}

// OENC version 2 layout (little-endian host order; a "vector" is a u64
// element count, then the elements):
//   "OENC" u32 version
//   u32 #fields, per field: char vector name, u8 type
//   u8 hashed, u64 hash_hot_values, u64 hash_buckets, u8 pairs built
//   u32 vector of triple fields (3 per triple)
//   f32 vector of continuous (min, max) pairs
//   per vocabulary (fields, pairs, triples): i64 vector of its values in
//     id order — exact values, or the hashed hot set
//   u32 #cat hot-id lists, each an i32 vector; same for the pairs
//   u32 CRC-32 of every byte before it
Status FittedEncoder::Save(const std::string& path) const {
  std::string out(kMagic, sizeof(kMagic));
  Put(&out, kVersion);
  Put(&out, static_cast<uint32_t>(schema_.num_fields()));
  for (const FieldSpec& field : schema_.fields()) {
    PutVector(&out, std::vector<char>(field.name.begin(), field.name.end()));
    Put(&out, static_cast<uint8_t>(field.type));
  }
  Put(&out, static_cast<uint8_t>(hashed_));
  Put(&out, static_cast<uint64_t>(hash_hot_values_));
  Put(&out, static_cast<uint64_t>(hash_buckets_));
  Put(&out, static_cast<uint8_t>(num_pairs_ > 0));
  std::vector<uint32_t> triple_fields;
  for (const auto& t : triples_) {
    triple_fields.insert(triple_fields.end(), t.begin(), t.end());
  }
  PutVector(&out, triple_fields);
  std::vector<float> min_max;
  for (const ContStats& st : cont_stats_) {
    min_max.insert(min_max.end(), {st.min, st.max});
  }
  PutVector(&out, min_max);
  for (const Column& c : vocabs_) {
    std::vector<int64_t> values;
    if (c.hashed) {
      for (const uint64_t v : c.hashed->HotValues()) {
        values.push_back(static_cast<int64_t>(v));
      }
    } else {
      for (const auto& item : c.exact.Items()) values.push_back(item.first);
    }
    PutVector(&out, values);
  }
  for (const auto* lists : {&cat_hot_ids_, &cross_hot_ids_}) {
    Put(&out, static_cast<uint32_t>(lists->size()));
    for (const std::vector<int32_t>& ids : *lists) PutVector(&out, ids);
  }
  Put(&out, Crc32(out.data(), out.size()));

  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) return Status::IoError("cannot open '" + path + "' for write");
  file.write(out.data(), static_cast<std::streamsize>(out.size()));
  if (!file) return Status::IoError("short write to '" + path + "'");
  return Status::OK();
}

Result<FittedEncoder> FittedEncoder::Load(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return Status::IoError("cannot open '" + path + "'");
  const std::string bytes((std::istreambuf_iterator<char>(file)),
                          std::istreambuf_iterator<char>());
  return Parse(bytes, path);
}

Result<FittedEncoder> FittedEncoder::Parse(std::string_view bytes,
                                           const std::string& path) {
  if (bytes.size() < kHeaderBytes + kCrcBytes ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::Invalid("'" + path + "' is not a fitted-encoder file");
  }
  uint32_t version = 0;
  uint32_t crc = 0;
  const size_t body_end = bytes.size() - kCrcBytes;
  std::memcpy(&version, bytes.data() + sizeof(kMagic), sizeof(version));
  std::memcpy(&crc, bytes.data() + body_end, sizeof(crc));
  if (version != kVersion) {
    return Status::Invalid(StrFormat("'%s': encoder version %u, want %u",
                                     path.c_str(), version, kVersion));
  }
  auto corrupt = [&](const std::string& what) {
    return Status::Corruption("encoder file '" + path + "': " + what);
  };
  if (crc != Crc32(bytes.data(), body_end)) return corrupt("CRC mismatch");
  ByteReader in(bytes.data() + kHeaderBytes, body_end - kHeaderBytes);

  // Schema: each field takes at least its name's count word and its type.
  uint32_t num_fields = 0;
  if (!in.Get(&num_fields) ||
      num_fields > in.left() / (sizeof(uint64_t) + sizeof(uint8_t))) {
    return corrupt("bad field count");
  }
  std::vector<FieldSpec> fields(num_fields);
  for (FieldSpec& f : fields) {
    std::vector<char> name;
    uint8_t type = 0;
    if (!in.GetVector(&name) || !in.Get(&type) ||
        type > static_cast<uint8_t>(FieldType::kContinuous)) {
      return corrupt("bad schema");
    }
    f = {std::string(name.begin(), name.end()), static_cast<FieldType>(type)};
  }
  FittedEncoder enc;
  enc.schema_ = DatasetSchema(std::move(fields));
  const size_t num_cat = enc.schema_.num_categorical();

  uint8_t hashed = 0;
  uint64_t hot_values = 0;
  uint64_t buckets = 0;
  uint8_t pairs = 0;
  std::vector<uint32_t> triple_fields;
  std::vector<float> min_max;
  if (!in.Get(&hashed) || !in.Get(&hot_values) || !in.Get(&buckets) ||
      !in.Get(&pairs) || hashed > 1 || pairs > 1 ||
      (hashed == 1 && (buckets == 0 || hot_values > kMaxIds ||
                       buckets > kMaxIds - 1 - hot_values))) {
    return corrupt("bad encoder options");
  }
  if (!in.GetVector(&triple_fields) || triple_fields.size() % 3 != 0 ||
      !in.GetVector(&min_max) ||
      min_max.size() != 2 * enc.schema_.num_continuous()) {
    return corrupt("bad triples or min-max stats");
  }
  std::vector<std::array<size_t, 3>> triples;
  for (size_t i = 0; i < triple_fields.size(); i += 3) {
    triples.push_back(
        {triple_fields[i], triple_fields[i + 1], triple_fields[i + 2]});
    const auto& t = triples.back();
    if (!(t[0] < t[1] && t[1] < t[2] && t[2] < num_cat)) {
      return corrupt("bad triple fields");
    }
  }
  // Every vocabulary takes at least its 8-byte count word.
  if (num_cat + (pairs == 1 ? enc.schema_.num_pairs() : 0) + triples.size() >
      in.left() / sizeof(uint64_t)) {
    return corrupt("more vocabularies than bytes");
  }
  enc.hashed_ = hashed == 1;
  enc.hash_hot_values_ = hot_values;
  enc.hash_buckets_ = buckets;
  enc.Layout(pairs == 1, std::move(triples));
  for (size_t f = 0; f < enc.schema_.num_continuous(); ++f) {
    enc.cont_stats_.push_back({min_max[2 * f], min_max[2 * f + 1]});
  }

  for (size_t c = 0; c < enc.vocabs_.size(); ++c) {
    std::vector<int64_t> values;
    if (!in.GetVector(&values)) return corrupt(StrFormat("bad vocab %zu", c));
    if (enc.hashed_) {
      auto vocab = HashedVocab::FromHotValues(
          enc.HashOptions(c),
          std::vector<uint64_t>(values.begin(), values.end()));
      if (!vocab.ok()) return corrupt(vocab.status().message());
      enc.vocabs_[c].hashed = std::move(vocab).value();
      continue;
    }
    // Exact ids follow ascending value order (Vocab::Finalize).
    if (values.size() >= kMaxIds ||
        std::adjacent_find(values.begin(), values.end(),
                           std::greater_equal<int64_t>()) != values.end()) {
      return corrupt(StrFormat("vocab %zu is not sorted", c));
    }
    std::vector<std::pair<int64_t, int32_t>> items;
    for (const int64_t v : values) {
      items.emplace_back(v, static_cast<int32_t>(items.size() + 1));
    }
    enc.vocabs_[c].exact = Vocab::FromItems(items);
  }
  const Status key_range = enc.CheckTripleKeyRange();
  if (!key_range.ok()) return corrupt(key_range.message());

  // Hot-id lists: none or one per field (pair), each id inside the
  // field's (pair's) vocabulary.
  size_t first_vocab = 0;
  for (auto* lists : {&enc.cat_hot_ids_, &enc.cross_hot_ids_}) {
    const size_t count =
        lists == &enc.cat_hot_ids_ ? num_cat : enc.num_pairs_;
    uint32_t num_lists = 0;
    if (!in.Get(&num_lists) || (num_lists != 0 && num_lists != count)) {
      return corrupt("bad hot-id list count");
    }
    lists->resize(num_lists);
    for (size_t l = 0; l < num_lists; ++l) {
      const size_t vocab = enc.vocabs_[first_vocab + l].size();
      if (!in.GetVector(&(*lists)[l])) return corrupt("bad hot-id list");
      for (const int32_t id : (*lists)[l]) {
        if (id < 0 || static_cast<size_t>(id) >= vocab) {
          return corrupt("hot id outside its vocabulary");
        }
      }
    }
    first_vocab = num_cat;
  }
  if (in.left() != 0) return corrupt("trailing bytes");
  return enc;
}

}  // namespace optinter

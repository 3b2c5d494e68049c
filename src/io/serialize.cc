#include "io/serialize.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/string_util.h"

namespace optinter {

namespace {

constexpr char kMagic[4] = {'O', 'P', 'T', 'I'};
constexpr uint32_t kVersion = 1;

template <typename T>
void WritePod(std::ofstream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool ReadPod(std::ifstream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  return static_cast<bool>(in);
}

}  // namespace

Status SaveTensors(const std::string& path,
                   const std::vector<const Tensor*>& tensors) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open '" + path + "' for write");
  out.write(kMagic, sizeof(kMagic));
  WritePod(out, kVersion);
  WritePod(out, static_cast<uint64_t>(tensors.size()));
  for (const Tensor* t : tensors) {
    CHECK(t != nullptr);
    WritePod(out, static_cast<uint32_t>(t->ndim()));
    for (size_t d : t->shape()) {
      WritePod(out, static_cast<uint64_t>(d));
    }
    out.write(reinterpret_cast<const char*>(t->data()),
              static_cast<std::streamsize>(t->size() * sizeof(float)));
  }
  if (!out) return Status::IoError("short write to '" + path + "'");
  return Status::OK();
}

namespace {

/// "[d0, d1, ...]" without constructing a Tensor — a corrupt checkpoint
/// can claim absurd dims, and building a Tensor just to print them would
/// try to allocate them.
std::string FormatShape(const std::vector<size_t>& shape) {
  std::string s = "[";
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i > 0) s += ", ";
    s += std::to_string(shape[i]);
  }
  s += "]";
  return s;
}

}  // namespace

Status LoadTensors(const std::string& path,
                   const std::vector<Tensor*>& tensors) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open '" + path + "'");
  in.seekg(0, std::ios::end);
  const uint64_t file_size = static_cast<uint64_t>(in.tellg());
  in.seekg(0, std::ios::beg);

  // Pass 1 — validate the ENTIRE file (magic, version, tensor count,
  // every shape, and the exact payload size) before touching a single
  // model weight. A truncated, corrupted, or field-config-mismatched
  // checkpoint must fail cleanly with the model untouched, never leave it
  // half-overwritten with garbage.
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::Invalid("'" + path + "' is not an OptInter checkpoint");
  }
  uint32_t version = 0;
  if (!ReadPod(in, &version)) {
    return Status::Invalid("'" + path + "' truncated in header");
  }
  if (version != kVersion) {
    return Status::Invalid(StrFormat(
        "'%s' has unsupported checkpoint version %u (this build reads %u)",
        path.c_str(), version, kVersion));
  }
  uint64_t count = 0;
  if (!ReadPod(in, &count)) {
    return Status::Invalid("'" + path + "' truncated in header");
  }
  if (count != tensors.size()) {
    return Status::Invalid(StrFormat(
        "'%s' holds %llu tensors but the model expects %zu — checkpoint "
        "was written by a model with a different architecture or feature "
        "configuration",
        path.c_str(), static_cast<unsigned long long>(count),
        tensors.size()));
  }
  // A serialized shape can legitimately have at most a handful of dims;
  // anything larger means the stream is garbage, not a real tensor.
  constexpr uint32_t kMaxDims = 8;
  std::vector<uint64_t> data_offsets(tensors.size());
  std::vector<size_t> shape;
  for (size_t i = 0; i < tensors.size(); ++i) {
    Tensor* t = tensors[i];
    CHECK(t != nullptr);
    uint32_t ndim = 0;
    if (!ReadPod(in, &ndim)) {
      return Status::Invalid(
          StrFormat("'%s' truncated before tensor %zu of %zu", path.c_str(),
                    i, tensors.size()));
    }
    if (ndim == 0 || ndim > kMaxDims) {
      return Status::Invalid(StrFormat(
          "'%s' tensor %zu claims %u dimensions — corrupt checkpoint",
          path.c_str(), i, ndim));
    }
    shape.assign(ndim, 0);
    for (uint32_t d = 0; d < ndim; ++d) {
      uint64_t dim = 0;
      if (!ReadPod(in, &dim)) {
        return Status::Invalid(StrFormat(
            "'%s' truncated in tensor %zu shape", path.c_str(), i));
      }
      shape[d] = static_cast<size_t>(dim);
    }
    if (shape != t->shape()) {
      return Status::Invalid(StrFormat(
          "'%s' tensor %zu shape mismatch: checkpoint %s vs model %s — "
          "checkpoint was written against a different field configuration",
          path.c_str(), i, FormatShape(shape).c_str(),
          t->ShapeString().c_str()));
    }
    const uint64_t bytes = static_cast<uint64_t>(t->size()) * sizeof(float);
    data_offsets[i] = static_cast<uint64_t>(in.tellg());
    if (data_offsets[i] + bytes > file_size) {
      return Status::Invalid(StrFormat(
          "'%s' truncated: tensor %zu needs %llu data bytes at offset "
          "%llu but the file ends at %llu",
          path.c_str(), i, static_cast<unsigned long long>(bytes),
          static_cast<unsigned long long>(data_offsets[i]),
          static_cast<unsigned long long>(file_size)));
    }
    in.seekg(static_cast<std::streamoff>(bytes), std::ios::cur);
  }
  if (static_cast<uint64_t>(in.tellg()) != file_size) {
    return Status::Invalid(StrFormat(
        "'%s' has %llu trailing bytes after the last tensor — corrupt or "
        "mismatched checkpoint",
        path.c_str(),
        static_cast<unsigned long long>(
            file_size - static_cast<uint64_t>(in.tellg()))));
  }

  // Pass 2 — the whole file checked out; now (and only now) overwrite the
  // model's weights.
  for (size_t i = 0; i < tensors.size(); ++i) {
    Tensor* t = tensors[i];
    in.seekg(static_cast<std::streamoff>(data_offsets[i]), std::ios::beg);
    in.read(reinterpret_cast<char*>(t->data()),
            static_cast<std::streamsize>(t->size() * sizeof(float)));
    if (!in) {
      return Status::IoError(
          StrFormat("'%s' read failed at tensor %zu after validation — "
                    "file changed mid-load?",
                    path.c_str(), i));
    }
  }
  return Status::OK();
}

Status SaveModel(CtrModel* model, const std::string& path) {
  CHECK(model != nullptr);
  std::vector<Tensor*> state;
  model->CollectState(&state);
  if (state.empty()) {
    return Status::FailedPrecondition(
        model->Name() + " exposes no state to checkpoint");
  }
  std::vector<const Tensor*> const_state(state.begin(), state.end());
  return SaveTensors(path, const_state);
}

Status LoadModel(CtrModel* model, const std::string& path) {
  CHECK(model != nullptr);
  if (model->frozen()) {
    return Status::FailedPrecondition(
        "cannot load '" + path + "' into frozen model " + model->Name() +
        ": a published model is immutable; load into a fresh instance");
  }
  std::vector<Tensor*> state;
  model->CollectState(&state);
  if (state.empty()) {
    return Status::FailedPrecondition(
        model->Name() + " exposes no state to checkpoint");
  }
  return LoadTensors(path, state);
}

Status SaveArchitecture(const Architecture& arch, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IoError("cannot open '" + path + "' for write");
  for (size_t p = 0; p < arch.size(); ++p) {
    out << p << " " << InterMethodName(arch[p]) << "\n";
  }
  if (!out) return Status::IoError("short write to '" + path + "'");
  return Status::OK();
}

Result<Architecture> LoadArchitecture(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open '" + path + "'");
  Architecture arch;
  std::string line;
  size_t expected = 0;
  while (std::getline(in, line)) {
    std::string_view trimmed = Trim(line);
    if (trimmed.empty()) continue;
    std::istringstream is{std::string(trimmed)};
    size_t index = 0;
    std::string method;
    if (!(is >> index >> method)) {
      return Status::Invalid("malformed architecture line: '" + line + "'");
    }
    if (index != expected) {
      return Status::Invalid(
          StrFormat("architecture lines out of order at %zu", index));
    }
    if (method == "memorize") {
      arch.push_back(InterMethod::kMemorize);
    } else if (method == "factorize") {
      arch.push_back(InterMethod::kFactorize);
    } else if (method == "naive") {
      arch.push_back(InterMethod::kNaive);
    } else {
      return Status::Invalid("unknown method '" + method + "'");
    }
    ++expected;
  }
  if (arch.empty()) return Status::Invalid("empty architecture file");
  return arch;
}

}  // namespace optinter

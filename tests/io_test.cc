#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "core/fixed_arch_model.h"
#include "core/zoo.h"
#include "io/serialize.h"
#include "test_data.h"

namespace optinter {
namespace {

using testing::HeadBatch;
using testing::SharedTinyData;
using testing::TempPath;

HyperParams TinyHp() {
  HyperParams hp = DefaultHyperParams("tiny");
  hp.seed = 77;
  return hp;
}

TEST(SerializeTest, TensorRoundTrip) {
  Tensor a({3, 4});
  Tensor b({7});
  for (size_t i = 0; i < a.size(); ++i) a[i] = static_cast<float>(i) * 0.5f;
  for (size_t i = 0; i < b.size(); ++i) b[i] = -static_cast<float>(i);
  const std::string path = TempPath("tensors.bin");
  ASSERT_TRUE(SaveTensors(path, {&a, &b}).ok());

  Tensor a2({3, 4});
  Tensor b2({7});
  ASSERT_TRUE(LoadTensors(path, {&a2, &b2}).ok());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], a2[i]);
  for (size_t i = 0; i < b.size(); ++i) EXPECT_EQ(b[i], b2[i]);
}

TEST(SerializeTest, ShapeMismatchRejected) {
  Tensor a({2, 2});
  const std::string path = TempPath("shape.bin");
  ASSERT_TRUE(SaveTensors(path, {&a}).ok());
  Tensor wrong({4});
  EXPECT_FALSE(LoadTensors(path, {&wrong}).ok());
}

TEST(SerializeTest, CountMismatchRejected) {
  Tensor a({2});
  const std::string path = TempPath("count.bin");
  ASSERT_TRUE(SaveTensors(path, {&a}).ok());
  Tensor b({2}), c({2});
  EXPECT_FALSE(LoadTensors(path, {&b, &c}).ok());
}

TEST(SerializeTest, GarbageFileRejected) {
  const std::string path = TempPath("garbage.bin");
  std::ofstream(path) << "definitely not a checkpoint";
  Tensor t({1});
  Status st = LoadTensors(path, {&t});
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(SerializeTest, MissingFileIsIoError) {
  Tensor t({1});
  Status st = LoadTensors(TempPath("no_such_file.bin"), {&t});
  EXPECT_EQ(st.code(), StatusCode::kIoError);
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(SerializeTest, TruncationAtAnyPointLeavesTargetsUntouched) {
  Tensor a({4, 4});
  Tensor b({8});
  for (size_t i = 0; i < a.size(); ++i) a[i] = static_cast<float>(i);
  for (size_t i = 0; i < b.size(); ++i) b[i] = 100.0f + static_cast<float>(i);
  const std::string path = TempPath("full.bin");
  ASSERT_TRUE(SaveTensors(path, {&a, &b}).ok());
  const std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), 16u);

  const std::string trunc_path = TempPath("trunc.bin");
  // Cut inside the magic, the header, tensor 0's shape, tensor 0's data,
  // and tensor 1's data (one byte short). Every cut must fail cleanly AND
  // leave the destination tensors exactly as they were — no partial
  // overwrite of live model weights before the error surfaces.
  const size_t cuts[] = {2,  9,  13, 20, 30,
                         bytes.size() / 2, bytes.size() - 1};
  for (const size_t cut : cuts) {
    WriteFileBytes(trunc_path, bytes.substr(0, cut));
    Tensor a2({4, 4});
    Tensor b2({8});
    for (size_t i = 0; i < a2.size(); ++i) a2[i] = -7.5f;
    for (size_t i = 0; i < b2.size(); ++i) b2[i] = -7.5f;
    Status st = LoadTensors(trunc_path, {&a2, &b2});
    EXPECT_FALSE(st.ok()) << "cut at " << cut;
    for (size_t i = 0; i < a2.size(); ++i) {
      ASSERT_EQ(a2[i], -7.5f) << "cut at " << cut << " wrote tensor 0";
    }
    for (size_t i = 0; i < b2.size(); ++i) {
      ASSERT_EQ(b2[i], -7.5f) << "cut at " << cut << " wrote tensor 1";
    }
  }
}

TEST(SerializeTest, TrailingGarbageRejected) {
  Tensor a({3});
  const std::string path = TempPath("trailing.bin");
  ASSERT_TRUE(SaveTensors(path, {&a}).ok());
  std::string bytes = ReadFileBytes(path);
  bytes += "junk";
  WriteFileBytes(path, bytes);
  Tensor a2({3});
  Status st = LoadTensors(path, {&a2});
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("trailing"), std::string::npos);
}

TEST(SerializeTest, AbsurdShapeRejectedWithoutAllocation) {
  // Hand-craft a header claiming a preposterous tensor: the loader must
  // report a clean mismatch, not try to materialize the claimed dims.
  const std::string path = TempPath("absurd.bin");
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write("OPTI", 4);
  const uint32_t version = 1;
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  const uint64_t count = 1;
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  const uint32_t ndim = 2;
  out.write(reinterpret_cast<const char*>(&ndim), sizeof(ndim));
  const uint64_t huge = 1ull << 40;
  out.write(reinterpret_cast<const char*>(&huge), sizeof(huge));
  out.write(reinterpret_cast<const char*>(&huge), sizeof(huge));
  out.close();
  Tensor t({2, 2});
  Status st = LoadTensors(path, {&t});
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("mismatch"), std::string::npos);
}

TEST(SerializeTest, AbsurdDimCountRejected) {
  const std::string path = TempPath("absurd_ndim.bin");
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write("OPTI", 4);
  const uint32_t version = 1;
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  const uint64_t count = 1;
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  const uint32_t ndim = 4000000000u;  // garbage stream read as a shape
  out.write(reinterpret_cast<const char*>(&ndim), sizeof(ndim));
  out.close();
  Tensor t({2});
  Status st = LoadTensors(path, {&t});
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("dimensions"), std::string::npos);
}

TEST(SerializeTest, ModelCheckpointRestoresPredictions) {
  const auto& p = SharedTinyData();
  const std::string path = TempPath("model.ckpt");
  Batch b = HeadBatch(p, 64);

  ForwardContext ctx;
  std::vector<float> trained_probs;
  {
    auto model = CreateBaseline("OptInter-M", p.data, TinyHp());
    ASSERT_TRUE(model.ok());
    for (int i = 0; i < 10; ++i) (*model)->TrainStep(b);
    (*model)->Predict(b, &trained_probs, &ctx);
    ASSERT_TRUE(SaveModel(model->get(), path).ok());
  }
  // A fresh identically-constructed model differs before load, matches
  // after.
  auto fresh = CreateBaseline("OptInter-M", p.data, TinyHp());
  ASSERT_TRUE(fresh.ok());
  std::vector<float> fresh_probs;
  (*fresh)->Predict(b, &fresh_probs, &ctx);
  bool differs = false;
  for (size_t i = 0; i < trained_probs.size(); ++i) {
    differs |= trained_probs[i] != fresh_probs[i];
  }
  EXPECT_TRUE(differs);
  ASSERT_TRUE(LoadModel(fresh->get(), path).ok());
  std::vector<float> loaded_probs;
  (*fresh)->Predict(b, &loaded_probs, &ctx);
  for (size_t i = 0; i < trained_probs.size(); ++i) {
    EXPECT_FLOAT_EQ(trained_probs[i], loaded_probs[i]);
  }
}

TEST(SerializeTest, CrossModelLoadRejected) {
  const auto& p = SharedTinyData();
  const std::string path = TempPath("fnn.ckpt");
  auto fnn = CreateBaseline("FNN", p.data, TinyHp());
  ASSERT_TRUE(fnn.ok());
  ASSERT_TRUE(SaveModel(fnn->get(), path).ok());
  auto mem = CreateBaseline("OptInter-M", p.data, TinyHp());
  ASSERT_TRUE(mem.ok());
  EXPECT_FALSE(LoadModel(mem->get(), path).ok());
}

TEST(ArchIoTest, RoundTrip) {
  Architecture arch = {InterMethod::kMemorize, InterMethod::kNaive,
                       InterMethod::kFactorize, InterMethod::kMemorize};
  const std::string path = TempPath("arch.txt");
  ASSERT_TRUE(SaveArchitecture(arch, path).ok());
  auto loaded = LoadArchitecture(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, arch);
}

TEST(ArchIoTest, HumanReadableFormat) {
  Architecture arch = {InterMethod::kFactorize};
  const std::string path = TempPath("arch_fmt.txt");
  ASSERT_TRUE(SaveArchitecture(arch, path).ok());
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "0 factorize");
}

TEST(ArchIoTest, MalformedRejected) {
  const std::string path = TempPath("bad_arch.txt");
  std::ofstream(path) << "0 memorize\n1 telepathize\n";
  EXPECT_FALSE(LoadArchitecture(path).ok());
}

TEST(ArchIoTest, OutOfOrderRejected) {
  const std::string path = TempPath("ooo_arch.txt");
  std::ofstream(path) << "1 memorize\n0 naive\n";
  EXPECT_FALSE(LoadArchitecture(path).ok());
}

TEST(ArchIoTest, EmptyRejected) {
  const std::string path = TempPath("empty_arch.txt");
  std::ofstream(path) << "\n\n";
  EXPECT_FALSE(LoadArchitecture(path).ok());
}

}  // namespace
}  // namespace optinter

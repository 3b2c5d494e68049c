// Golden-bits gate: the canonical tiny pipeline must produce exactly the
// recorded bits.
//
// One fixed-seed run of search → argmax → retrain → eval → Predict, on
// every runtime kernel backend this binary can select
// (AvailableKernelBackends). Each run is reduced to a fingerprint:
//
//  * the argmax architecture (one letter per pair: m/f/n);
//  * an FNV-1a hash of the bytes of every CollectState tensor of the
//    search model and of the retrained model;
//  * the bit patterns of the retrained model's validation AUC and logloss;
//  * FNV-1a hashes of Predict outputs at batch sizes 1 (the fused
//    single-row path), 7 and 2048.
//
// Refactors and performance work that claim "same bits" are held to this
// test: a fingerprint may only change in a commit that sets out to change
// the numbers, and that commit re-records the goldens below.
//
// Bits differ legitimately between build configurations (the compile-time
// SIMD width of the non-dispatched layers, the embedding-backend override
// of the CI parity job), so goldens are keyed by (configuration, embedding
// backend override, runtime kernel backend). A configuration without a
// recorded table is skipped and its fingerprints printed; a recorded
// configuration with a missing backend fails. To re-record, run
//   golden_bits_test --gtest_filter='*Pipeline*'
// in each configuration and paste the printed "golden:" lines.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/fixed_arch_model.h"
#include "core/search_model.h"
#include "golden_util.h"
#include "models/hyperparams.h"
#include "tensor/dispatch.h"
#include "test_data.h"
#include "train/trainer.h"

namespace optinter {
namespace {

using testing::BackendGuard;
using testing::BuildConfig;
using testing::Fnv1a;
using testing::kFnvBasis;
using testing::SharedTinyData;

struct Fingerprint {
  std::string arch;
  uint64_t search_state = 0;
  uint64_t model_state = 0;
  uint64_t val_auc_bits = 0;
  uint64_t val_logloss_bits = 0;
  uint64_t predict_b1 = 0;
  uint64_t predict_b7 = 0;
  uint64_t predict_b2048 = 0;

  bool operator==(const Fingerprint&) const = default;
};

struct Golden {
  const char* config;   // BuildConfig()
  const char* embed;    // EmbedOverride()
  const char* backend;  // KernelTable::name
  Fingerprint fp;
};

// Recorded with GCC 12 on x86-64 (a host with AVX-512) at the commit
// before the activation-workspace rework (pointer-cached Linear input,
// mask-free ReLU, non-zeroing output resizes), which they pin as
// bit-neutral. Keys are the configurations CI tests: the default build
// (the TSan build gives the same bits), OPTINTER_EMBED_BACKEND=qr on it,
// -DOPTINTER_DISABLE_SIMD=ON, and the ASan/UBSan build.
const std::vector<Golden> kGoldens = {
    {"avx2", "dense", "avx512",
     {"mnmnnmnfnfmmmmn", 0x8ded38145b67ac01ull, 0x0bca8561cb60beeeull,
      0x3fe690404b4bee9full, 0x3fe27f505b571c3aull, 0xed22cfc3b98dce46ull,
      0xb23c61acbd84ec60ull, 0x9f4f44c4a361c8cbull}},
    {"avx2", "dense", "avx2-fma",
     {"mnmnnmnfnfmmmmn", 0x06dbee7bb74ea2e3ull, 0xa129d9454562b487ull,
      0x3fe690404b4bee9full, 0x3fe27f505974b38full, 0xe6f891ace4ca6c39ull,
      0x96669912e3b46b53ull, 0x04f943398cb763c7ull}},
    {"avx2", "dense", "sse2",
     {"mnmnnmnfnfmmmmn", 0x39f3764acf7284d4ull, 0xc30d3110be65a645ull,
      0x3fe690404b4bee9full, 0x3fe27f505cdd119cull, 0xe6f891ace4ca6c39ull,
      0xa528af3579856682ull, 0xc224284f0d9485d2ull}},
    {"avx2", "dense", "scalar",
     {"mnmnnmnfnfmmmmn", 0x2cda9aaaae164834ull, 0x86be18a19190089full,
      0x3fe690404b4bee9full, 0x3fe27f505a39619bull, 0x521b15dc760d7b53ull,
      0xf81f3152973ad589ull, 0xf15babaefe6677d1ull}},
    {"avx2", "qr", "avx512",
     {"fmmmfmmmmnffnnm", 0xde214de1e0ec2f72ull, 0x83e520665b47a0faull,
      0x3fe78f076d65553full, 0x3fe2aaa00f4bb372ull, 0x27c25a7497d233efull,
      0xe90388cef7fcc8feull, 0x0bb207ec786a1c9dull}},
    {"avx2", "qr", "avx2-fma",
     {"fmmmfmmmmnffnnm", 0x8dda6edcc6294b79ull, 0xbb6f982e5bdeb8d1ull,
      0x3fe78f076d65553full, 0x3fe2aaa00997e3daull, 0x1a8922959fff571bull,
      0xec39c70a2f641a1cull, 0x411c48b301c73e43ull}},
    {"avx2", "qr", "sse2",
     {"fmmmfmmmmnffnnm", 0xcf9259f82a73be7bull, 0x78101c9d5dedc2e9ull,
      0x3fe78f076d65553full, 0x3fe2aaa00f2a0da4ull, 0x136cac2325b27a70ull,
      0x2e9861f96b2b132dull, 0x0c5fba09c893ff9full}},
    {"avx2", "qr", "scalar",
     {"fmmmfmmmmnffnnm", 0x3780fe6fb22d497cull, 0x389f672d9462feb2ull,
      0x3fe78f076d65553full, 0x3fe2aaa00fa89e74ull, 0x1a8922959fff571bull,
      0xa73f688c4bd614d4ull, 0x189823275e8bda8full}},
    {"nosimd", "dense", "scalar",
     {"mnmnnmnfnfmmmmn", 0x7bfa83a4b734179dull, 0xecbc66c7cfc75030ull,
      0x3fe690404b4bee9full, 0x3fe27f505c80c189ull, 0xe6f891ace4ca6c39ull,
      0x109222457ac16d97ull, 0x21fd77829b9a0208ull}},
    {"asan-ubsan", "dense", "avx512",
     {"mnmnnmnfnfmmmmn", 0xb9be53633a48ddeeull, 0x8a60b844000a29cbull,
      0x3fe690404b4bee9full, 0x3fe27f505e0fb73cull, 0xe6f891ace4ca6c39ull,
      0x8fe830ff5a18d82full, 0x494a1c8eb06e0b94ull}},
    {"asan-ubsan", "dense", "avx2-fma",
     {"mnmnnmnfnfmmmmn", 0x7b4a3857a5e2c1faull, 0x40386fa23c0c29d2ull,
      0x3fe690404b4bee9full, 0x3fe27f505b94e383ull, 0xed22cfc3b98dce46ull,
      0xe72c5b0ce5149bf8ull, 0xb2723d8886dac79dull}},
    {"asan-ubsan", "dense", "sse2",
     {"mnmnnmnfnfmmmmn", 0xcac8f3b7230a7fc1ull, 0x14a0a06abab22362ull,
      0x3fe690404b4bee9full, 0x3fe27f505c5f31c9ull, 0xed22cfc3b98dce46ull,
      0x8cec36e2df652784ull, 0x8979b0aeffd2feceull}},
    {"asan-ubsan", "dense", "scalar",
     {"mnmnnmnfnfmmmmn", 0x197361a2a661d430ull, 0x110d4983a8bab839ull,
      0x3fe690404b4bee9full, 0x3fe27f50594fcd1full, 0xed22cfc3b98dce46ull,
      0x0e45eeb4f3b31e53ull, 0xe55cb074e99e820eull}},
};

std::string EmbedOverride() {
  const char* env = std::getenv("OPTINTER_EMBED_BACKEND");
  return env == nullptr || env[0] == '\0' ? "dense" : env;
}

uint64_t StateHash(CtrModel* model) {
  std::vector<Tensor*> state;
  model->CollectState(&state);
  uint64_t h = kFnvBasis;
  for (const Tensor* t : state) {
    h = Fnv1a(t->data(), t->size() * sizeof(float), h);
  }
  return h;
}

uint64_t Bits(double v) {
  uint64_t u;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

std::string ArchString(const Architecture& arch) {
  std::string s;
  for (InterMethod m : arch) {
    s += m == InterMethod::kMemorize ? 'm'
         : m == InterMethod::kFactorize ? 'f'
                                        : 'n';
  }
  return s;
}

Batch RowsBatch(const EncodedDataset& data, const std::vector<size_t>& rows,
                size_t offset, size_t size) {
  Batch b;
  b.data = &data;
  b.rows = rows.data() + offset;
  b.size = size;
  return b;
}

// The canonical tiny pipeline on the active kernel backend.
Fingerprint RunPipeline() {
  const auto& p = SharedTinyData();
  HyperParams hp = DefaultHyperParams("tiny");
  hp.mlp_hidden = {32, 16};
  hp.seed = 1234;
  const std::vector<size_t>& train = p.splits.train;
  const size_t kBatch = 256;
  const size_t kSteps = 12;
  CHECK_GE(train.size(), kSteps * kBatch);
  CHECK_GE(train.size(), 2048u);

  Fingerprint fp;
  SearchModel search(p.data, hp);
  for (size_t s = 0; s < kSteps; ++s) {
    search.TrainStep(RowsBatch(p.data, train, s * kBatch, kBatch));
  }
  fp.search_state = StateHash(&search);
  const Architecture arch = search.ExtractArchitecture();
  fp.arch = ArchString(arch);

  FixedArchModel model(p.data, arch, hp);
  for (size_t s = 0; s < kSteps; ++s) {
    model.TrainStep(RowsBatch(p.data, train, s * kBatch, kBatch));
  }
  fp.model_state = StateHash(&model);
  const EvalMetrics val = EvaluateModel(&model, p.data, p.splits.val);
  fp.val_auc_bits = Bits(val.auc);
  fp.val_logloss_bits = Bits(val.logloss);

  ForwardContext ctx;
  std::vector<float> probs;
  const auto predict_hash = [&](size_t size) {
    model.Predict(RowsBatch(p.data, train, 0, size), &probs, &ctx);
    return Fnv1a(probs.data(), probs.size() * sizeof(float), kFnvBasis);
  };
  fp.predict_b1 = predict_hash(1);
  fp.predict_b7 = predict_hash(7);
  fp.predict_b2048 = predict_hash(2048);
  return fp;
}

std::string GoldenLine(const char* config, const std::string& embed,
                       const char* backend, const Fingerprint& fp) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"%s\", \"%s\", \"%s\", {\"%s\", 0x%016llxull, "
                "0x%016llxull, 0x%016llxull, 0x%016llxull, 0x%016llxull, "
                "0x%016llxull, 0x%016llxull}},",
                config, embed.c_str(), backend, fp.arch.c_str(),
                static_cast<unsigned long long>(fp.search_state),
                static_cast<unsigned long long>(fp.model_state),
                static_cast<unsigned long long>(fp.val_auc_bits),
                static_cast<unsigned long long>(fp.val_logloss_bits),
                static_cast<unsigned long long>(fp.predict_b1),
                static_cast<unsigned long long>(fp.predict_b7),
                static_cast<unsigned long long>(fp.predict_b2048));
  return buf;
}

TEST(GoldenBitsTest, PipelineMatchesRecordedBitsOnEveryBackend) {
  BackendGuard guard;
  const char* config = BuildConfig();
  const std::string embed = EmbedOverride();
  bool recorded = false;
  for (const Golden& g : kGoldens) {
    recorded |= config == std::string(g.config) && embed == g.embed;
  }
  std::string missing;
  for (const KernelTable* table : AvailableKernelBackends()) {
    ASSERT_TRUE(SelectKernelBackendForTest(table->name));
    const Fingerprint fp = RunPipeline();
    const std::string line = GoldenLine(config, embed, table->name, fp);
    std::printf("golden: %s\n", line.c_str());
    if (!recorded) continue;
    const Golden* want = nullptr;
    for (const Golden& g : kGoldens) {
      if (config == std::string(g.config) && embed == g.embed &&
          std::strcmp(g.backend, table->name) == 0) {
        want = &g;
      }
    }
    if (want == nullptr) {
      missing += std::string(" ") + table->name;
      continue;
    }
    EXPECT_TRUE(fp == want->fp)
        << "bits moved on backend " << table->name << "\n  got:  " << line
        << "\n  want: "
        << GoldenLine(want->config, want->embed, want->backend, want->fp);
  }
  if (!recorded) {
    GTEST_SKIP() << "no goldens recorded for configuration '" << config
                 << "' with embedding backend '" << embed << "'";
  }
  EXPECT_TRUE(missing.empty())
      << "no golden recorded for backend(s):" << missing;
}

}  // namespace
}  // namespace optinter

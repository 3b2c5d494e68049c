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
//  * FNV-1a hashes of Predict outputs at batch sizes 1, 7 and 2048 (the
//    last crosses the parallel row-assembly cut-off). The retrained model
//    is then frozen (its MLP weights packed once, as when it is
//    published) and must reproduce the same three hashes.
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
#include <memory>
#include <string>
#include <vector>

#include "core/autofis.h"
#include "core/fixed_arch_model.h"
#include "core/pipeline.h"
#include "core/search_model.h"
#include "core/zoo.h"
#include "golden_util.h"
#include "models/hyperparams.h"
#include "serve/snapshot.h"
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

  // Frozen, the model predicts over MLP weights packed once (the served
  // path): the same three hashes, so the same recorded goldens.
  model.Freeze();
  EXPECT_NE(model.mlp_packs(), nullptr);
  const std::string backend = ActiveKernelBackend();
  EXPECT_EQ(predict_hash(1), fp.predict_b1) << "frozen, batch 1, " << backend;
  EXPECT_EQ(predict_hash(7), fp.predict_b7) << "frozen, batch 7, " << backend;
  EXPECT_EQ(predict_hash(2048), fp.predict_b2048)
      << "frozen, batch 2048, " << backend;
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

// ---------------------------------------------------------------------------
// Per-model fingerprints.
//
// Every zoo baseline outside FixedArchModel, AutoFIS search, the
// multi-operation SearchModel (candidates {memorize, Hadamard, inner,
// naïve}) and a bi-level search stage, each trained once through the public entry
// points (TrainModel / RunSearchStage) with fixed seeds. A model's
// fingerprint is the CollectState hash after training, the validation
// AUC/logloss bits and Predict hashes at batch sizes 1, 7 and 2048; the
// bi-level search records its argmax architecture and the search model's
// validation and test metric bits.
//
// These pin the models' numbers, not the kernels', so they run on the
// scalar kernel backend, which every host has: one golden per
// (configuration, embedding backend override, model). The configuration
// also names the CMake build type: GCC rounds the FM second-order loops
// (FM, DeepFM) differently at -O3 (Release) and -O2 (RelWithDebInfo, the
// TSan build), and no predefined macro tells the two apart. Same re-record
// rule as above: run
//   golden_bits_test --gtest_filter='*PerModel*'
// and paste the printed "model golden:" lines.
// ---------------------------------------------------------------------------

std::string ModelConfig() {
  return std::string(BuildConfig()) + "/" + OPTINTER_BUILD_TYPE;
}

struct ModelFingerprint {
  uint64_t state = 0;
  uint64_t val_auc_bits = 0;
  uint64_t val_logloss_bits = 0;
  uint64_t predict_b1 = 0;
  uint64_t predict_b7 = 0;
  uint64_t predict_b2048 = 0;

  bool operator==(const ModelFingerprint&) const = default;
};

struct ModelGolden {
  const char* config;  // ModelConfig()
  const char* embed;   // EmbedOverride()
  const char* model;
  ModelFingerprint fp;
};

// Recorded with GCC 12 on x86-64 at the commit before every model moved
// onto the prepared-batch training protocol, which they pin as
// bit-neutral. RelWithDebInfo was recorded in the TSan build (plain
// RelWithDebInfo gives the same bits). The OptInter-sum-search-wide-s2
// rows were recorded (plain RelWithDebInfo) before the search assembled
// z through InteractionLayout, which they pin as bit-neutral.
const std::vector<ModelGolden> kModelGoldens = {
    {"avx2/Release", "dense", "LR",
     {0x915ad2515cc925d2ull, 0x3fe78694e45a892cull, 0x3fe2d696d8b5a429ull,
      0xfd37a33cf28207f8ull, 0xbb50e50df57f6a1eull, 0xe17971f830c7ea12ull}},
    {"avx2/Release", "dense", "Poly2",
     {0x570b53a5b161bbd4ull, 0x3fea1eb18b9ebccfull, 0x3fdf2cd6a9f95b93ull,
      0x0befbbd2b319690aull, 0x8559ef9672a2526bull, 0xcbf2eb8012071948ull}},
    {"avx2/Release", "dense", "FM",
     {0x4ed5f8da887ecad2ull, 0x3fe8b504feffddcbull, 0x3fe0716b511adf77ull,
      0x2db4cb76f60b39d8ull, 0x2330de033648c607ull, 0xb1ed119252f7bf89ull}},
    {"avx2/Release", "dense", "FFM",
     {0x510192621c3f8984ull, 0x3fea580d6d5cfd69ull, 0x3fde86f9bbab6749ull,
      0x4cf4dfcf51395624ull, 0x2cc1f598b57a40a0ull, 0xfe6c3789ddde4307ull}},
    {"avx2/Release", "dense", "FwFM",
     {0x548a5fda8f1d0ba5ull, 0x3fe8cdbc6a0c7ec0ull, 0x3fe0505b5ea9e8cfull,
      0xae3f7b2b4ec776c1ull, 0x4a71c7159c5b5ed1ull, 0x7c5e8de1022047f7ull}},
    {"avx2/Release", "dense", "FmFM",
     {0x287f709632cc1468ull, 0x3fe96cc6d05631dfull, 0x3fdfd7c87707c159ull,
      0xd90543e08f626d91ull, 0x9a28253690e75e73ull, 0x6b0e0d2ed9a753bbull}},
    {"avx2/Release", "dense", "IPNN",
     {0x606dd5be76dd9061ull, 0x3fe8bbe70fd941b5ull, 0x3fe0e41b6e0caf99ull,
      0xf25fee7e2841ac04ull, 0x959053c6d9d8ca74ull, 0xd3cc81b08873c191ull}},
    {"avx2/Release", "dense", "OPNN",
     {0x500276e941b6468aull, 0x3fe8d8ca66144dc3ull, 0x3fe0ca970f36e0daull,
      0x1710855d43bfeb7aull, 0xf30ae5b789924641ull, 0x8713b4e389e9e8dfull}},
    {"avx2/Release", "dense", "DeepFM",
     {0x36ddddc080db18a9ull, 0x3fe91f64ec1f88ccull, 0x3fe01c44bdd585b7ull,
      0x69298f73c4b2c833ull, 0x9d719f45c08bf5caull, 0xc3100fde10a495cdull}},
    {"avx2/Release", "dense", "PIN",
     {0xf287a7f8decd116eull, 0x3fe6156616ce82fbull, 0x3fe3d07b72d682daull,
      0xfc26e8d466d2c46eull, 0xcfc1184ef14c6eb1ull, 0xe5280e8f4280ec89ull}},
    {"avx2/Release", "dense", "AutoFIS-search",
     {0x0cdaeaf1a9266acfull, 0x3fe958560325f1e3ull, 0x3fe023f3c91fa060ull,
      0x17eac3ccf8674545ull, 0x724b2c1713ec9eebull, 0x29f96e49a2c734d6ull}},
    {"avx2/Release", "dense", "OptInter-multiop-search",
     {0x60d52c232e709723ull, 0x3fea71ea85e32f05ull, 0x3fde28d06439365cull,
      0x03ba5420b796b5fbull, 0x6e098b7c34d6615full, 0x7899427ed58ac5ddull}},
    {"avx2/Release", "dense", "OptInter-sum-search-wide-s2",
     {0xa20287fa06389f8aull, 0x3fea06b50353d4feull, 0x3fe00b61fd41b183ull,
      0x7138a07b9aca2673ull, 0xa2226a0a94b44ef5ull, 0xc04444d7ab660389ull}},
    {"avx2/Release", "qr", "LR",
     {0x915ad2515cc925d2ull, 0x3fe78694e45a892cull, 0x3fe2d696d8b5a429ull,
      0xfd37a33cf28207f8ull, 0xbb50e50df57f6a1eull, 0xe17971f830c7ea12ull}},
    {"avx2/Release", "qr", "Poly2",
     {0x0eb18cd8e0754776ull, 0x3fe92a081d6f804cull, 0x3fe04d4726a0bc77ull,
      0x808a4281d414f078ull, 0x1ef229a9898ac8edull, 0xa3137088f51c5bfaull}},
    {"avx2/Release", "qr", "FM",
     {0x4ed5f8da887ecad2ull, 0x3fe8b504feffddcbull, 0x3fe0716b511adf77ull,
      0x2db4cb76f60b39d8ull, 0x2330de033648c607ull, 0xb1ed119252f7bf89ull}},
    {"avx2/Release", "qr", "FFM",
     {0x510192621c3f8984ull, 0x3fea580d6d5cfd69ull, 0x3fde86f9bbab6749ull,
      0x4cf4dfcf51395624ull, 0x2cc1f598b57a40a0ull, 0xfe6c3789ddde4307ull}},
    {"avx2/Release", "qr", "FwFM",
     {0x548a5fda8f1d0ba5ull, 0x3fe8cdbc6a0c7ec0ull, 0x3fe0505b5ea9e8cfull,
      0xae3f7b2b4ec776c1ull, 0x4a71c7159c5b5ed1ull, 0x7c5e8de1022047f7ull}},
    {"avx2/Release", "qr", "FmFM",
     {0x287f709632cc1468ull, 0x3fe96cc6d05631dfull, 0x3fdfd7c87707c159ull,
      0xd90543e08f626d91ull, 0x9a28253690e75e73ull, 0x6b0e0d2ed9a753bbull}},
    {"avx2/Release", "qr", "IPNN",
     {0x606dd5be76dd9061ull, 0x3fe8bbe70fd941b5ull, 0x3fe0e41b6e0caf99ull,
      0xf25fee7e2841ac04ull, 0x959053c6d9d8ca74ull, 0xd3cc81b08873c191ull}},
    {"avx2/Release", "qr", "OPNN",
     {0x500276e941b6468aull, 0x3fe8d8ca66144dc3ull, 0x3fe0ca970f36e0daull,
      0x1710855d43bfeb7aull, 0xf30ae5b789924641ull, 0x8713b4e389e9e8dfull}},
    {"avx2/Release", "qr", "DeepFM",
     {0x36ddddc080db18a9ull, 0x3fe91f64ec1f88ccull, 0x3fe01c44bdd585b7ull,
      0x69298f73c4b2c833ull, 0x9d719f45c08bf5caull, 0xc3100fde10a495cdull}},
    {"avx2/Release", "qr", "PIN",
     {0xf287a7f8decd116eull, 0x3fe6156616ce82fbull, 0x3fe3d07b72d682daull,
      0xfc26e8d466d2c46eull, 0xcfc1184ef14c6eb1ull, 0xe5280e8f4280ec89ull}},
    {"avx2/Release", "qr", "AutoFIS-search",
     {0x0cdaeaf1a9266acfull, 0x3fe958560325f1e3ull, 0x3fe023f3c91fa060ull,
      0x17eac3ccf8674545ull, 0x724b2c1713ec9eebull, 0x29f96e49a2c734d6ull}},
    {"avx2/Release", "qr", "OptInter-multiop-search",
     {0x76e73f825215aa84ull, 0x3fe8ebc56dc11b75ull, 0x3fe0a937f5f2c994ull,
      0x1316ab86c70afdd8ull, 0x86970c6471579836ull, 0x315ef57d45e69888ull}},
    {"avx2/Release", "qr", "OptInter-sum-search-wide-s2",
     {0xcd6733322321a37full, 0x3fe93b3d478efa14ull, 0x3fe038bafc3af777ull,
      0x33a1d1cdffa7dd43ull, 0xdb7f6a75aef6c72full, 0xd5db372f65f12b0eull}},
    {"avx2/RelWithDebInfo", "dense", "LR",
     {0x915ad2515cc925d2ull, 0x3fe78694e45a892cull, 0x3fe2d696d8b5a429ull,
      0xfd37a33cf28207f8ull, 0xbb50e50df57f6a1eull, 0xe17971f830c7ea12ull}},
    {"avx2/RelWithDebInfo", "dense", "Poly2",
     {0x570b53a5b161bbd4ull, 0x3fea1eb18b9ebccfull, 0x3fdf2cd6a9f95b93ull,
      0x0befbbd2b319690aull, 0x8559ef9672a2526bull, 0xcbf2eb8012071948ull}},
    {"avx2/RelWithDebInfo", "dense", "FM",
     {0x847addcf3073b4f2ull, 0x3fe8b504feffddcbull, 0x3fe0716b522762a1ull,
      0x4ca217742508ae0dull, 0x2e548ef779684348ull, 0xe096a2ab56e5f3f8ull}},
    {"avx2/RelWithDebInfo", "dense", "FFM",
     {0x510192621c3f8984ull, 0x3fea580d6d5cfd69ull, 0x3fde86f9bbab6749ull,
      0x4cf4dfcf51395624ull, 0x2cc1f598b57a40a0ull, 0xfe6c3789ddde4307ull}},
    {"avx2/RelWithDebInfo", "dense", "FwFM",
     {0x548a5fda8f1d0ba5ull, 0x3fe8cdbc6a0c7ec0ull, 0x3fe0505b5ea9e8cfull,
      0xae3f7b2b4ec776c1ull, 0x4a71c7159c5b5ed1ull, 0x7c5e8de1022047f7ull}},
    {"avx2/RelWithDebInfo", "dense", "FmFM",
     {0x287f709632cc1468ull, 0x3fe96cc6d05631dfull, 0x3fdfd7c87707c159ull,
      0xd90543e08f626d91ull, 0x9a28253690e75e73ull, 0x6b0e0d2ed9a753bbull}},
    {"avx2/RelWithDebInfo", "dense", "IPNN",
     {0x606dd5be76dd9061ull, 0x3fe8bbe70fd941b5ull, 0x3fe0e41b6e0caf99ull,
      0xf25fee7e2841ac04ull, 0x959053c6d9d8ca74ull, 0xd3cc81b08873c191ull}},
    {"avx2/RelWithDebInfo", "dense", "OPNN",
     {0x500276e941b6468aull, 0x3fe8d8ca66144dc3ull, 0x3fe0ca970f36e0daull,
      0x1710855d43bfeb7aull, 0xf30ae5b789924641ull, 0x8713b4e389e9e8dfull}},
    {"avx2/RelWithDebInfo", "dense", "DeepFM",
     {0x08c758146597da13ull, 0x3fe91f64ec1f88ccull, 0x3fe01c44bbc9efe1ull,
      0x49bfeb855d5790c1ull, 0x7ccc6c65d814490cull, 0x834853dfeddad9e6ull}},
    {"avx2/RelWithDebInfo", "dense", "PIN",
     {0xf287a7f8decd116eull, 0x3fe6156616ce82fbull, 0x3fe3d07b72d682daull,
      0xfc26e8d466d2c46eull, 0xcfc1184ef14c6eb1ull, 0xe5280e8f4280ec89ull}},
    {"avx2/RelWithDebInfo", "dense", "AutoFIS-search",
     {0x0cdaeaf1a9266acfull, 0x3fe958560325f1e3ull, 0x3fe023f3c91fa060ull,
      0x17eac3ccf8674545ull, 0x724b2c1713ec9eebull, 0x29f96e49a2c734d6ull}},
    {"avx2/RelWithDebInfo", "dense", "OptInter-multiop-search",
     {0x60d52c232e709723ull, 0x3fea71ea85e32f05ull, 0x3fde28d06439365cull,
      0x03ba5420b796b5fbull, 0x6e098b7c34d6615full, 0x7899427ed58ac5ddull}},
    {"avx2/RelWithDebInfo", "dense", "OptInter-sum-search-wide-s2",
     {0xa20287fa06389f8aull, 0x3fea06b50353d4feull, 0x3fe00b61fd41b183ull,
      0x7138a07b9aca2673ull, 0xa2226a0a94b44ef5ull, 0xc04444d7ab660389ull}},
    {"avx2/RelWithDebInfo", "qr", "LR",
     {0x915ad2515cc925d2ull, 0x3fe78694e45a892cull, 0x3fe2d696d8b5a429ull,
      0xfd37a33cf28207f8ull, 0xbb50e50df57f6a1eull, 0xe17971f830c7ea12ull}},
    {"avx2/RelWithDebInfo", "qr", "Poly2",
     {0x0eb18cd8e0754776ull, 0x3fe92a081d6f804cull, 0x3fe04d4726a0bc77ull,
      0x808a4281d414f078ull, 0x1ef229a9898ac8edull, 0xa3137088f51c5bfaull}},
    {"avx2/RelWithDebInfo", "qr", "FM",
     {0x847addcf3073b4f2ull, 0x3fe8b504feffddcbull, 0x3fe0716b522762a1ull,
      0x4ca217742508ae0dull, 0x2e548ef779684348ull, 0xe096a2ab56e5f3f8ull}},
    {"avx2/RelWithDebInfo", "qr", "FFM",
     {0x510192621c3f8984ull, 0x3fea580d6d5cfd69ull, 0x3fde86f9bbab6749ull,
      0x4cf4dfcf51395624ull, 0x2cc1f598b57a40a0ull, 0xfe6c3789ddde4307ull}},
    {"avx2/RelWithDebInfo", "qr", "FwFM",
     {0x548a5fda8f1d0ba5ull, 0x3fe8cdbc6a0c7ec0ull, 0x3fe0505b5ea9e8cfull,
      0xae3f7b2b4ec776c1ull, 0x4a71c7159c5b5ed1ull, 0x7c5e8de1022047f7ull}},
    {"avx2/RelWithDebInfo", "qr", "FmFM",
     {0x287f709632cc1468ull, 0x3fe96cc6d05631dfull, 0x3fdfd7c87707c159ull,
      0xd90543e08f626d91ull, 0x9a28253690e75e73ull, 0x6b0e0d2ed9a753bbull}},
    {"avx2/RelWithDebInfo", "qr", "IPNN",
     {0x606dd5be76dd9061ull, 0x3fe8bbe70fd941b5ull, 0x3fe0e41b6e0caf99ull,
      0xf25fee7e2841ac04ull, 0x959053c6d9d8ca74ull, 0xd3cc81b08873c191ull}},
    {"avx2/RelWithDebInfo", "qr", "OPNN",
     {0x500276e941b6468aull, 0x3fe8d8ca66144dc3ull, 0x3fe0ca970f36e0daull,
      0x1710855d43bfeb7aull, 0xf30ae5b789924641ull, 0x8713b4e389e9e8dfull}},
    {"avx2/RelWithDebInfo", "qr", "DeepFM",
     {0x08c758146597da13ull, 0x3fe91f64ec1f88ccull, 0x3fe01c44bbc9efe1ull,
      0x49bfeb855d5790c1ull, 0x7ccc6c65d814490cull, 0x834853dfeddad9e6ull}},
    {"avx2/RelWithDebInfo", "qr", "PIN",
     {0xf287a7f8decd116eull, 0x3fe6156616ce82fbull, 0x3fe3d07b72d682daull,
      0xfc26e8d466d2c46eull, 0xcfc1184ef14c6eb1ull, 0xe5280e8f4280ec89ull}},
    {"avx2/RelWithDebInfo", "qr", "AutoFIS-search",
     {0x0cdaeaf1a9266acfull, 0x3fe958560325f1e3ull, 0x3fe023f3c91fa060ull,
      0x17eac3ccf8674545ull, 0x724b2c1713ec9eebull, 0x29f96e49a2c734d6ull}},
    {"avx2/RelWithDebInfo", "qr", "OptInter-multiop-search",
     {0x76e73f825215aa84ull, 0x3fe8ebc56dc11b75ull, 0x3fe0a937f5f2c994ull,
      0x1316ab86c70afdd8ull, 0x86970c6471579836ull, 0x315ef57d45e69888ull}},
    {"avx2/RelWithDebInfo", "qr", "OptInter-sum-search-wide-s2",
     {0xcd6733322321a37full, 0x3fe93b3d478efa14ull, 0x3fe038bafc3af777ull,
      0x33a1d1cdffa7dd43ull, 0xdb7f6a75aef6c72full, 0xd5db372f65f12b0eull}},
};

struct SearchGolden {
  const char* config;
  const char* embed;
  std::string arch;
  uint64_t val_auc_bits = 0;
  uint64_t val_logloss_bits = 0;
  uint64_t test_auc_bits = 0;
  uint64_t test_logloss_bits = 0;
};

// Bi-level RunSearchStage (ArchStep on validation batches), recorded with
// the model goldens above.
const std::vector<SearchGolden> kBilevelGoldens = {
    {"avx2/Release", "dense", "mmmnmnnmmmmmmmm",
     0x3fe9a4e251ecebf1ull, 0x3fdf8aaa0962945aull,
     0x3fe9a0f5a4581fa0ull, 0x3fdea19bc3c64074ull},
    {"avx2/Release", "qr", "fmfnnfmmnmffmmm",
     0x3fe97d4117b3f282ull, 0x3fe0d616d5b12adaull,
     0x3fe8e6ffcfc9bf69ull, 0x3fe047556a627ab4ull},
    {"avx2/RelWithDebInfo", "dense", "mmmnmnnmmmmmmmm",
     0x3fe9a4e251ecebf1ull, 0x3fdf8aaa0962945aull,
     0x3fe9a0f5a4581fa0ull, 0x3fdea19bc3c64074ull},
    {"avx2/RelWithDebInfo", "qr", "fmfnnfmmnmffmmm",
     0x3fe97d4117b3f282ull, 0x3fe0d616d5b12adaull,
     0x3fe8e6ffcfc9bf69ull, 0x3fe047556a627ab4ull},
};

HyperParams ModelHp() {
  HyperParams hp = DefaultHyperParams("tiny");
  hp.mlp_hidden = {32, 16};
  hp.seed = 1234;
  return hp;
}

const std::vector<std::string>& FingerprintedModels() {
  static const std::vector<std::string> names = {
      "LR",   "Poly2",  "FM",  "FFM",       "FwFM",          "FmFM", "IPNN",
      "OPNN", "DeepFM", "PIN", "AutoFIS-search", "OptInter-multiop-search",
      "OptInter-sum-search-wide-s2"};
  return names;
}

std::unique_ptr<CtrModel> MakeFingerprintModel(const std::string& name,
                                               const EncodedDataset& data,
                                               const HyperParams& hp) {
  if (name == "AutoFIS-search") {
    return std::make_unique<AutoFisSearchModel>(data, hp);
  }
  if (name == "OptInter-multiop-search") {
    return std::make_unique<SearchModel>(
        data, hp, UpdateMode::kJoint,
        std::vector<FactorizeFn>{FactorizeFn::kHadamard,
                                 FactorizeFn::kInnerProduct});
  }
  if (name == "OptInter-sum-search-wide-s2") {
    // K = 3 over {sum} with s2 > s1: the memorized candidate is the
    // widest, so the factorized candidate is the zero-padded one (tiny's
    // own s2 < s1 pads the memorized candidate instead).
    HyperParams wide = hp;
    wide.cross_embed_dim = hp.embed_dim + 4;
    return std::make_unique<SearchModel>(
        data, wide, UpdateMode::kJoint,
        std::vector<FactorizeFn>{FactorizeFn::kPointwiseSum});
  }
  auto model = CreateBaseline(name, data, hp);
  CHECK(model.ok()) << model.status().ToString();
  return std::move(model).value();
}

ModelFingerprint RunModel(const std::string& name) {
  const auto& p = SharedTinyData();
  std::unique_ptr<CtrModel> model = MakeFingerprintModel(name, p.data,
                                                         ModelHp());
  TrainOptions opts;
  opts.epochs = 2;
  opts.batch_size = 256;
  opts.seed = 7;
  const TrainSummary summary = TrainModel(model.get(), p.data, p.splits,
                                          opts);
  ModelFingerprint fp;
  fp.state = StateHash(model.get());
  fp.val_auc_bits = Bits(summary.final_val.auc);
  fp.val_logloss_bits = Bits(summary.final_val.logloss);
  ForwardContext ctx;
  std::vector<float> probs;
  const auto predict_hash = [&](size_t size) {
    model->Predict(RowsBatch(p.data, p.splits.train, 0, size), &probs, &ctx);
    return Fnv1a(probs.data(), probs.size() * sizeof(float), kFnvBasis);
  };
  fp.predict_b1 = predict_hash(1);
  fp.predict_b7 = predict_hash(7);
  fp.predict_b2048 = predict_hash(2048);
  return fp;
}

SearchGolden RunBilevelSearch(const char* config, const std::string& embed) {
  const auto& p = SharedTinyData();
  SearchOptions opts;
  opts.search_epochs = 2;
  opts.mode = UpdateMode::kBilevel;
  const SearchResult r = RunSearchStage(p.data, p.splits, ModelHp(), opts);
  SearchGolden g{config, embed.c_str(), ArchString(r.arch)};
  g.val_auc_bits = Bits(r.search_val.auc);
  g.val_logloss_bits = Bits(r.search_val.logloss);
  g.test_auc_bits = Bits(r.search_test.auc);
  g.test_logloss_bits = Bits(r.search_test.logloss);
  return g;
}

std::string ModelGoldenLine(const char* config, const std::string& embed,
                            const std::string& model,
                            const ModelFingerprint& fp) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"%s\", \"%s\", \"%s\", {0x%016llxull, 0x%016llxull, "
                "0x%016llxull, 0x%016llxull, 0x%016llxull, 0x%016llxull}},",
                config, embed.c_str(), model.c_str(),
                static_cast<unsigned long long>(fp.state),
                static_cast<unsigned long long>(fp.val_auc_bits),
                static_cast<unsigned long long>(fp.val_logloss_bits),
                static_cast<unsigned long long>(fp.predict_b1),
                static_cast<unsigned long long>(fp.predict_b7),
                static_cast<unsigned long long>(fp.predict_b2048));
  return buf;
}

std::string SearchGoldenLine(const SearchGolden& g) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"%s\", \"%s\", \"%s\", 0x%016llxull, 0x%016llxull, "
                "0x%016llxull, 0x%016llxull},",
                g.config, g.embed, g.arch.c_str(),
                static_cast<unsigned long long>(g.val_auc_bits),
                static_cast<unsigned long long>(g.val_logloss_bits),
                static_cast<unsigned long long>(g.test_auc_bits),
                static_cast<unsigned long long>(g.test_logloss_bits));
  return buf;
}

TEST(GoldenBitsTest, PerModelTrainingMatchesRecordedBits) {
  BackendGuard guard;
  ASSERT_TRUE(SelectKernelBackendForTest("scalar"));
  const std::string model_config = ModelConfig();
  const char* config = model_config.c_str();
  const std::string embed = EmbedOverride();
  bool recorded = false;
  for (const ModelGolden& g : kModelGoldens) {
    recorded |= config == std::string(g.config) && embed == g.embed;
  }
  for (const std::string& name : FingerprintedModels()) {
    const ModelFingerprint fp = RunModel(name);
    const std::string line = ModelGoldenLine(config, embed, name, fp);
    std::printf("model golden: %s\n", line.c_str());
    if (!recorded) continue;
    const ModelGolden* want = nullptr;
    for (const ModelGolden& g : kModelGoldens) {
      if (config == std::string(g.config) && embed == g.embed &&
          name == g.model) {
        want = &g;
      }
    }
    ASSERT_NE(want, nullptr) << "no golden recorded for model " << name;
    EXPECT_TRUE(fp == want->fp)
        << "bits moved for " << name << "\n  got:  " << line
        << "\n  want: "
        << ModelGoldenLine(want->config, want->embed, want->model, want->fp);
  }

  const SearchGolden got = RunBilevelSearch(config, embed);
  std::printf("model golden: %s\n", SearchGoldenLine(got).c_str());
  const SearchGolden* want = nullptr;
  for (const SearchGolden& g : kBilevelGoldens) {
    if (config == std::string(g.config) && embed == g.embed) want = &g;
  }
  if (!recorded && want == nullptr) {
    GTEST_SKIP() << "no model goldens recorded for configuration '" << config
                 << "' with embedding backend '" << embed << "'";
  }
  ASSERT_NE(want, nullptr) << "no bi-level search golden recorded";
  EXPECT_EQ(SearchGoldenLine(got), SearchGoldenLine(*want));
}

// ---------------------------------------------------------------------------
// Memorized triple (paper §II-B1 extension).
//
// FixedArchModel memorizing one field triple next to a mixed pairwise
// architecture, on a copy of the tiny data with two triples built. It
// trains like the per-model fingerprints (TrainModel, scalar backend, same
// seeds) and adds the int8 and bf16 QuantizeSnapshot views' Predict hashes
// at batch sizes 1, 7 and 2048. Same re-record rule: run
//   golden_bits_test --gtest_filter='*Triple*'
// and paste the printed "triple golden:" lines.
// ---------------------------------------------------------------------------

struct TripleFingerprint {
  ModelFingerprint model;
  uint64_t int8_b1 = 0;
  uint64_t int8_b7 = 0;
  uint64_t int8_b2048 = 0;
  uint64_t bf16_b1 = 0;
  uint64_t bf16_b7 = 0;
  uint64_t bf16_b2048 = 0;

  bool operator==(const TripleFingerprint&) const = default;
};

struct TripleGolden {
  const char* config;  // ModelConfig()
  const char* embed;   // EmbedOverride()
  TripleFingerprint fp;
};

// Recorded with GCC 12 on x86-64 before CrossEmbedding absorbed the triple
// layer, which they pin as bit-neutral; the batch-2048 quantized hashes
// were added before the quantized views moved onto the shared row
// assembler. The int8 columns were re-recorded when the int8 view dropped
// its int8 MLP for the source's fp32 one; no other column moved then.
// RelWithDebInfo was recorded in a plain RelWithDebInfo build (the TSan
// build's configuration); the int8 re-record used the TSan build itself.
const std::vector<TripleGolden> kTripleGoldens = {
    {"avx2/Release", "dense",
     {{0x415ff0bad2704355ull, 0x3fe8772d1a095076ull, 0x3fe0d28f50e431e6ull,
       0xc969855a551246c0ull, 0x9b9c514faabb3e9dull, 0x0cc48165ad4bd336ull},
      0x6dabff30eb8231f5ull, 0xa9f054838f2b65f3ull, 0x1b6f1a388a619b60ull,
      0xa35dd690de157f77ull, 0x73e88eb69c97cabaull, 0xfbff547644f7b7a3ull}},
    {"avx2/Release", "qr",
     {{0x7c9be354b911cdd4ull, 0x3fe8292b05bee420ull, 0x3fe143fa63adbe7dull,
       0x16caf9d3b0ef6aa9ull, 0xafc81e65a65e6ddfull, 0x9a77ee88ad693459ull},
      0x9b84ff8aeeb2d6b0ull, 0x37f229d5fa306e66ull, 0x704b5e6f61449121ull,
      0x358501408f0f7cedull, 0x7661a1d7a8a18d54ull, 0x4465eb52c153da32ull}},
    {"avx2/RelWithDebInfo", "dense",
     {{0x415ff0bad2704355ull, 0x3fe8772d1a095076ull, 0x3fe0d28f50e431e6ull,
       0xc969855a551246c0ull, 0x9b9c514faabb3e9dull, 0x0cc48165ad4bd336ull},
      0x6dabff30eb8231f5ull, 0xa9f054838f2b65f3ull, 0x1b6f1a388a619b60ull,
      0xa35dd690de157f77ull, 0x73e88eb69c97cabaull, 0xfbff547644f7b7a3ull}},
    {"avx2/RelWithDebInfo", "qr",
     {{0x7c9be354b911cdd4ull, 0x3fe8292b05bee420ull, 0x3fe143fa63adbe7dull,
       0x16caf9d3b0ef6aa9ull, 0xafc81e65a65e6ddfull, 0x9a77ee88ad693459ull},
      0x9b84ff8aeeb2d6b0ull, 0x37f229d5fa306e66ull, 0x704b5e6f61449121ull,
      0x358501408f0f7cedull, 0x7661a1d7a8a18d54ull, 0x4465eb52c153da32ull}},
};

TripleFingerprint RunTripleModel() {
  const auto& p = SharedTinyData();
  const EncodedDataset data = testing::TinyDataWithTriples();
  auto model = std::make_shared<FixedArchModel>(
      data, testing::MixedArchitecture(data.num_pairs()), ModelHp(),
      "OptInter-3rd", std::vector<size_t>{1});
  TrainOptions opts;
  opts.epochs = 2;
  opts.batch_size = 256;
  opts.seed = 7;
  const TrainSummary summary = TrainModel(model.get(), data, p.splits, opts);

  TripleFingerprint fp;
  fp.model.state = StateHash(model.get());
  fp.model.val_auc_bits = Bits(summary.final_val.auc);
  fp.model.val_logloss_bits = Bits(summary.final_val.logloss);
  ForwardContext ctx;
  std::vector<float> probs;
  const auto predict_hash = [&](const CtrModel& m, size_t size) {
    m.Predict(RowsBatch(data, p.splits.train, 0, size), &probs, &ctx);
    return Fnv1a(probs.data(), probs.size() * sizeof(float), kFnvBasis);
  };
  fp.model.predict_b1 = predict_hash(*model, 1);
  fp.model.predict_b7 = predict_hash(*model, 7);
  fp.model.predict_b2048 = predict_hash(*model, 2048);
  std::shared_ptr<const CtrModel> int8, bf16;
  CHECK_OK(serve::QuantizeSnapshot(model, QuantMode::kInt8, &int8));
  CHECK_OK(serve::QuantizeSnapshot(model, QuantMode::kBf16, &bf16));
  fp.int8_b1 = predict_hash(*int8, 1);
  fp.int8_b7 = predict_hash(*int8, 7);
  fp.int8_b2048 = predict_hash(*int8, 2048);
  fp.bf16_b1 = predict_hash(*bf16, 1);
  fp.bf16_b7 = predict_hash(*bf16, 7);
  fp.bf16_b2048 = predict_hash(*bf16, 2048);
  return fp;
}

std::string TripleGoldenLine(const char* config, const std::string& embed,
                             const TripleFingerprint& fp) {
  const ModelFingerprint& m = fp.model;
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"%s\", \"%s\", {{0x%016llxull, 0x%016llxull, "
                "0x%016llxull, 0x%016llxull, 0x%016llxull, 0x%016llxull}, "
                "0x%016llxull, 0x%016llxull, 0x%016llxull, 0x%016llxull, "
                "0x%016llxull, 0x%016llxull}},",
                config, embed.c_str(),
                static_cast<unsigned long long>(m.state),
                static_cast<unsigned long long>(m.val_auc_bits),
                static_cast<unsigned long long>(m.val_logloss_bits),
                static_cast<unsigned long long>(m.predict_b1),
                static_cast<unsigned long long>(m.predict_b7),
                static_cast<unsigned long long>(m.predict_b2048),
                static_cast<unsigned long long>(fp.int8_b1),
                static_cast<unsigned long long>(fp.int8_b7),
                static_cast<unsigned long long>(fp.int8_b2048),
                static_cast<unsigned long long>(fp.bf16_b1),
                static_cast<unsigned long long>(fp.bf16_b7),
                static_cast<unsigned long long>(fp.bf16_b2048));
  return buf;
}

TEST(GoldenBitsTest, MemorizedTripleMatchesRecordedBits) {
  BackendGuard guard;
  ASSERT_TRUE(SelectKernelBackendForTest("scalar"));
  const std::string config = ModelConfig();
  const std::string embed = EmbedOverride();
  const TripleFingerprint fp = RunTripleModel();
  const std::string line = TripleGoldenLine(config.c_str(), embed, fp);
  std::printf("triple golden: %s\n", line.c_str());
  const TripleGolden* want = nullptr;
  for (const TripleGolden& g : kTripleGoldens) {
    if (config == g.config && embed == g.embed) want = &g;
  }
  if (want == nullptr) {
    GTEST_SKIP() << "no triple golden recorded for configuration '" << config
                 << "' with embedding backend '" << embed << "'";
  }
  EXPECT_TRUE(fp == want->fp)
      << "bits moved\n  got:  " << line << "\n  want: "
      << TripleGoldenLine(want->config, want->embed, want->fp);
}

}  // namespace
}  // namespace optinter

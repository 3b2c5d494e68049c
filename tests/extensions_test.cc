// Tests for the paper's teased extensions implemented here: alternative
// factorization functions (one per pair, too) and third-order (triple)
// interactions. The multi-operation search itself is tested with
// SearchModel (core_test.cc).

#include <gtest/gtest.h>

#include <numeric>

#include "core/fixed_arch_model.h"
#include "core/pipeline.h"
#include "data/encoder.h"
#include "gradient_check.h"
#include "metrics/mutual_information.h"
#include "synth/profiles.h"
#include "test_data.h"
#include "train/trainer.h"

namespace optinter {
namespace {

using testing::HeadBatch;
using testing::SharedTinyData;

// ---------------------------------------------------------------------------
// Factorization functions
// ---------------------------------------------------------------------------

TEST(FactorizeFnTest, NamesAndParsing) {
  FactorizeFn fn;
  EXPECT_TRUE(ParseFactorizeFn("hadamard", &fn));
  EXPECT_EQ(fn, FactorizeFn::kHadamard);
  EXPECT_TRUE(ParseFactorizeFn("inner", &fn));
  EXPECT_EQ(fn, FactorizeFn::kInnerProduct);
  EXPECT_TRUE(ParseFactorizeFn("sum", &fn));
  EXPECT_EQ(fn, FactorizeFn::kPointwiseSum);
  EXPECT_FALSE(ParseFactorizeFn("outer", &fn));
  EXPECT_STREQ(FactorizeFnName(FactorizeFn::kHadamard), "hadamard");
}

TEST(FactorizeFnTest, Widths) {
  EXPECT_EQ(FactorizedWidth(FactorizeFn::kHadamard, 8), 8u);
  EXPECT_EQ(FactorizedWidth(FactorizeFn::kInnerProduct, 8), 1u);
  EXPECT_EQ(FactorizedWidth(FactorizeFn::kPointwiseSum, 8), 8u);
}

TEST(FactorizeFnTest, ForwardValues) {
  const float ei[] = {1, 2, 3};
  const float ej[] = {4, 5, 6};
  float out[3];
  FactorizedForward(FactorizeFn::kHadamard, 3, ei, ej, out);
  EXPECT_FLOAT_EQ(out[1], 10.0f);
  FactorizedForward(FactorizeFn::kInnerProduct, 3, ei, ej, out);
  EXPECT_FLOAT_EQ(out[0], 32.0f);
  FactorizedForward(FactorizeFn::kPointwiseSum, 3, ei, ej, out);
  EXPECT_FLOAT_EQ(out[2], 9.0f);
}

class FactorizeFnGradTest : public ::testing::TestWithParam<FactorizeFn> {};

TEST_P(FactorizeFnGradTest, BackwardMatchesFiniteDifference) {
  const FactorizeFn fn = GetParam();
  const size_t d = 5;
  Rng rng(3);
  std::vector<float> ei(d), ej(d), c(FactorizedWidth(fn, d));
  for (auto& v : ei) v = static_cast<float>(rng.Uniform(-1, 1));
  for (auto& v : ej) v = static_cast<float>(rng.Uniform(-1, 1));
  for (auto& v : c) v = static_cast<float>(rng.Uniform(-1, 1));
  auto loss = [&]() {
    std::vector<float> out(c.size());
    FactorizedForward(fn, d, ei.data(), ej.data(), out.data());
    double s = 0.0;
    for (size_t t = 0; t < c.size(); ++t) s += out[t] * c[t];
    return s;
  };
  std::vector<float> dei(d, 0.0f), dej(d, 0.0f);
  FactorizedBackward(fn, d, ei.data(), ej.data(), c.data(), 1.0f,
                     dei.data(), dej.data());
  testing::CheckGradient(ei.data(), d, dei.data(), loss);
  testing::CheckGradient(ej.data(), d, dej.data(), loss);
}

INSTANTIATE_TEST_SUITE_P(AllFns, FactorizeFnGradTest,
                         ::testing::Values(FactorizeFn::kHadamard,
                                           FactorizeFn::kInnerProduct,
                                           FactorizeFn::kPointwiseSum),
                         [](const auto& info) {
                           return FactorizeFnName(info.param);
                         });

class FactorizeFnModelTest : public ::testing::TestWithParam<FactorizeFn> {};

TEST_P(FactorizeFnModelTest, FixedArchTrainsWithEachFn) {
  const auto& p = SharedTinyData();
  HyperParams hp = DefaultHyperParams("tiny");
  hp.seed = 5;
  hp.factorize_fn = GetParam();
  auto model = FixedArchModel::MakeOptInterF(p.data, hp);
  Batch b = HeadBatch(p, 256);
  float first = 0.0f, last = 0.0f;
  for (int i = 0; i < 30; ++i) {
    const float loss = model->TrainStep(b);
    ASSERT_TRUE(std::isfinite(loss));
    if (i == 0) first = loss;
    last = loss;
  }
  EXPECT_LT(last, first);
}

TEST_P(FactorizeFnModelTest, SearchModelRunsWithEachFn) {
  const auto& p = SharedTinyData();
  HyperParams hp = DefaultHyperParams("tiny");
  hp.seed = 5;
  hp.factorize_fn = GetParam();
  SearchModel model(p.data, hp);
  Batch b = HeadBatch(p, 128);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(std::isfinite(model.TrainStep(b)));
  }
  Architecture arch = model.ExtractArchitecture();
  EXPECT_EQ(arch.size(), p.data.num_pairs());
}

INSTANTIATE_TEST_SUITE_P(AllFns, FactorizeFnModelTest,
                         ::testing::Values(FactorizeFn::kHadamard,
                                           FactorizeFn::kInnerProduct,
                                           FactorizeFn::kPointwiseSum),
                         [](const auto& info) {
                           return FactorizeFnName(info.param);
                         });

TEST(FactorizeFnTest, InnerProductShrinksModel) {
  const auto& p = SharedTinyData();
  HyperParams hadamard = DefaultHyperParams("tiny");
  HyperParams inner = hadamard;
  inner.factorize_fn = FactorizeFn::kInnerProduct;
  auto big = FixedArchModel::MakeOptInterF(p.data, hadamard);
  auto small = FixedArchModel::MakeOptInterF(p.data, inner);
  EXPECT_LT(small->ParamCount(), big->ParamCount());
}

TEST(FixedArchPerPairFnTest, MixedFnsChangeLayoutAndWidth) {
  const auto& p = SharedTinyData();
  HyperParams hp = DefaultHyperParams("tiny");
  hp.seed = 55;
  Architecture arch = AllFactorize(p.data.num_pairs());
  std::vector<FactorizeFn> fns(p.data.num_pairs(),
                               FactorizeFn::kInnerProduct);
  fns[0] = FactorizeFn::kHadamard;
  FixedArchModel mixed(p.data, arch, hp, "mixed", {}, fns);
  FixedArchModel all_inner(
      p.data, arch, hp, "inner", {},
      std::vector<FactorizeFn>(p.data.num_pairs(),
                               FactorizeFn::kInnerProduct));
  // One Hadamard pair widens the MLP input by (s1 - 1) columns.
  const size_t first_hidden = hp.mlp_hidden.front();
  EXPECT_EQ(mixed.ParamCount() - all_inner.ParamCount(),
            (hp.embed_dim - 1) * first_hidden);

  Batch b = HeadBatch(p, 128);
  float first = 0.0f, last = 0.0f;
  for (int i = 0; i < 20; ++i) {
    const float loss = mixed.TrainStep(b);
    ASSERT_TRUE(std::isfinite(loss));
    if (i == 0) first = loss;
    last = loss;
  }
  EXPECT_LT(last, first);
}

// ---------------------------------------------------------------------------
// Third-order interactions
// ---------------------------------------------------------------------------

TEST(TripleTest, EnumerateTriplesCountAndOrder) {
  auto triples = EnumerateTriples(5);
  EXPECT_EQ(triples.size(), 10u);  // C(5,3)
  EXPECT_EQ(triples.front(), (std::array<size_t, 3>{0, 1, 2}));
  EXPECT_EQ(triples.back(), (std::array<size_t, 3>{2, 3, 4}));
}

struct TripleFixture {
  SynthConfig cfg;
  EncodedDataset data;
  Splits splits;
};

const TripleFixture& SharedTripleData() {
  static const TripleFixture* fx = [] {
    auto* f = new TripleFixture();
    f->cfg = TinyConfig();
    f->cfg.num_rows = 8000;
    f->cfg.memorize_triples = {{0, 1, 2}};
    f->cfg.triple_scale = 1.5;
    RawDataset raw = GenerateSynthetic(f->cfg);
    Rng rng(9);
    f->splits = MakeSplits(raw.num_rows, 0.7, 0.1, &rng);
    EncoderOptions opts;
    opts.cat_min_count = 2;
    opts.cross_min_count = 2;
    opts.triples = EnumerateTriples(raw.schema.num_categorical());
    auto enc = EncodeDataset(raw, f->splits.train, opts);
    CHECK(enc.ok());
    f->data = std::move(enc).value();
    return f;
  }();
  return *fx;
}

TEST(TripleTest, BuildPopulatesIdsAndVocabs) {
  const auto& f = SharedTripleData();
  EXPECT_TRUE(f.data.has_triples());
  EXPECT_EQ(f.data.num_triples(),
            EnumerateTriples(f.data.num_categorical()).size());
  for (size_t t = 0; t < f.data.num_triples(); ++t) {
    EXPECT_GE(f.data.triple_vocab_sizes[t], 1u);
    for (size_t r = 0; r < 100; ++r) {
      EXPECT_GE(f.data.triple(r, t), 0);
      EXPECT_LT(static_cast<size_t>(f.data.triple(r, t)),
                f.data.triple_vocab_sizes[t]);
    }
  }
}

TEST(TripleTest, BadTripleOrderRejected) {
  const RawDataset raw = GenerateSynthetic(TinyConfig());
  EncoderOptions opts;
  for (const std::array<size_t, 3> bad :
       {std::array<size_t, 3>{2, 1, 0}, {0, 0, 1},
        {0, 1, raw.schema.num_categorical()}}) {
    opts.triples = {bad};
    const auto enc = EncodeDataset(raw, SharedTinyData().splits.train, opts);
    EXPECT_EQ(enc.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(TripleTest, PlantedTripleHasTopMiLift) {
  const auto& f = SharedTripleData();
  auto top = SelectTopTriplesByMiLift(f.data, f.splits.train, 3);
  ASSERT_FALSE(top.empty());
  bool found = false;
  for (size_t idx : top) {
    found |= f.data.triple_fields[idx] ==
             (std::array<size_t, 3>{0, 1, 2});
  }
  EXPECT_TRUE(found) << "planted triple not in top-3 by MI lift";
}

TEST(TripleTest, TripleMiExceedsUnplantedTriples) {
  const auto& f = SharedTripleData();
  const auto triples = EnumerateTriples(f.data.num_categorical());
  double planted_mi = 0.0;
  double other_sum = 0.0;
  size_t other_n = 0;
  for (size_t t = 0; t < triples.size(); ++t) {
    const double mi =
        TripleLabelMutualInformation(f.data, t, f.splits.train);
    if (triples[t] == (std::array<size_t, 3>{0, 1, 2})) {
      planted_mi = mi;
    } else {
      other_sum += mi;
      ++other_n;
    }
  }
  EXPECT_GT(planted_mi, other_sum / other_n);
}

TEST(TripleTest, ThirdOrderModelTrainsAndCounts) {
  const auto& f = SharedTripleData();
  HyperParams hp = DefaultHyperParams("tiny");
  hp.seed = 13;
  Architecture arch = AllNaive(f.data.num_pairs());
  FixedArchModel base(f.data, arch, hp, "2nd");
  FixedArchModel extended(f.data, arch, hp, "3rd", {0, 1});
  EXPECT_GT(extended.ParamCount(), base.ParamCount());

  Batch b;
  b.data = &f.data;
  b.rows = f.splits.train.data();
  b.size = 256;
  float first = 0.0f, last = 0.0f;
  for (int i = 0; i < 30; ++i) {
    const float loss = extended.TrainStep(b);
    ASSERT_TRUE(std::isfinite(loss));
    if (i == 0) first = loss;
    last = loss;
  }
  EXPECT_LT(last, first);
}

TEST(TripleTest, MemorizingPlantedTripleBeatsIgnoringIt) {
  const auto& f = SharedTripleData();
  HyperParams hp = DefaultHyperParams("tiny");
  hp.seed = 13;
  hp.epochs = 3;
  TrainOptions topts;
  topts.epochs = hp.epochs;
  topts.batch_size = hp.batch_size;
  topts.seed = hp.seed;
  topts.patience = 0;
  // Both models memorize all pairs; one additionally memorizes the
  // planted triple.
  Architecture arch = AllMemorize(f.data.num_pairs());
  size_t planted_idx = SIZE_MAX;
  const auto triples = EnumerateTriples(f.data.num_categorical());
  for (size_t t = 0; t < triples.size(); ++t) {
    if (triples[t] == (std::array<size_t, 3>{0, 1, 2})) planted_idx = t;
  }
  ASSERT_NE(planted_idx, SIZE_MAX);

  FixedArchModel base(f.data, arch, hp, "2nd");
  TrainSummary s2 = TrainModel(&base, f.data, f.splits, topts);
  FixedArchModel extended(f.data, arch, hp, "3rd", {planted_idx});
  TrainSummary s3 = TrainModel(&extended, f.data, f.splits, topts);
  EXPECT_GT(s3.final_test.auc, s2.final_test.auc - 0.005)
      << "third-order memory should not hurt";
}

TEST(TripleTest, GeneratorTripleEffectIsDeterministic) {
  SynthConfig cfg = TinyConfig();
  cfg.memorize_triples = {{0, 1, 2}};
  cfg.num_rows = 300;
  RawDataset a = GenerateSynthetic(cfg);
  RawDataset b = GenerateSynthetic(cfg);
  EXPECT_EQ(a.labels, b.labels);
  // Removing the planted triple changes labels.
  cfg.memorize_triples.clear();
  RawDataset c = GenerateSynthetic(cfg);
  EXPECT_NE(a.labels, c.labels);
}

}  // namespace
}  // namespace optinter

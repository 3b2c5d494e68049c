// Tests for the multi-operation search-space extension.

#include <gtest/gtest.h>

#include "core/fixed_arch_model.h"
#include "core/multi_op_search.h"
#include "test_data.h"
#include "train/trainer.h"

namespace optinter {
namespace {

using testing::HeadBatch;
using testing::SharedTinyData;

HyperParams TinyHp() {
  HyperParams hp = DefaultHyperParams("tiny");
  hp.seed = 55;
  return hp;
}

TEST(MultiOpSearchTest, DefaultHasFourCandidates) {
  const auto& p = SharedTinyData();
  MultiOpSearchModel model(p.data, TinyHp());
  EXPECT_EQ(model.num_candidates(), 4u);
}

TEST(MultiOpSearchTest, TrainsAndExtracts) {
  const auto& p = SharedTinyData();
  MultiOpSearchModel model(p.data, TinyHp());
  Batch b = HeadBatch(p, 256);
  float first = 0.0f, last = 0.0f;
  for (int i = 0; i < 20; ++i) {
    const float loss = model.TrainStep(b);
    ASSERT_TRUE(std::isfinite(loss));
    if (i == 0) first = loss;
    last = loss;
  }
  EXPECT_LT(last, first);
  MultiOpArchitecture arch = model.ExtractArchitecture();
  EXPECT_EQ(arch.methods.size(), p.data.num_pairs());
  EXPECT_EQ(arch.fns.size(), p.data.num_pairs());
}

TEST(MultiOpSearchTest, PredictionsValid) {
  const auto& p = SharedTinyData();
  MultiOpSearchModel model(p.data, TinyHp());
  Batch b = HeadBatch(p, 64);
  std::vector<float> probs;
  ForwardContext ctx;
  model.Predict(b, &probs, &ctx);
  for (float q : probs) {
    EXPECT_GT(q, 0.0f);
    EXPECT_LT(q, 1.0f);
  }
}

TEST(MultiOpSearchTest, StateCoversEveryParameter) {
  const auto& p = SharedTinyData();
  MultiOpSearchModel model(p.data, TinyHp());
  std::vector<Tensor*> state;
  model.CollectState(&state);
  size_t total = 0;
  for (Tensor* t : state) total += t->size();
  EXPECT_EQ(total, model.ParamCount());
}

TEST(MultiOpSearchTest, SingleFnReducesToThreeWay) {
  const auto& p = SharedTinyData();
  MultiOpSearchModel model(p.data, TinyHp(), {FactorizeFn::kHadamard});
  EXPECT_EQ(model.num_candidates(), 3u);
  MultiOpArchitecture arch = model.ExtractArchitecture();
  for (size_t q = 0; q < arch.fns.size(); ++q) {
    EXPECT_EQ(arch.fns[q], FactorizeFn::kHadamard);
  }
}

TEST(MultiOpSearchTest, SearchedArchRetrainsWithPerPairFns) {
  const auto& p = SharedTinyData();
  HyperParams hp = TinyHp();
  MultiOpSearchModel search(p.data, hp);
  Batch b = HeadBatch(p, 256);
  for (int i = 0; i < 30; ++i) search.TrainStep(b);
  MultiOpArchitecture arch = search.ExtractArchitecture();

  FixedArchModel model(p.data, arch.methods, hp, "multi",
                       /*memorized_triples=*/{}, arch.fns);
  TrainOptions topts;
  topts.epochs = 2;
  topts.batch_size = 256;
  topts.seed = hp.seed;
  topts.patience = 0;
  TrainSummary s = TrainModel(&model, p.data, p.splits, topts);
  EXPECT_GT(s.final_test.auc, 0.55);
}

TEST(FixedArchPerPairFnTest, MixedFnsChangeLayoutAndWidth) {
  const auto& p = SharedTinyData();
  HyperParams hp = TinyHp();
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

}  // namespace
}  // namespace optinter

// Checkpoint-state completeness: for every model, the tensors exposed by
// CollectState must account for exactly ParamCount() trainable floats —
// otherwise best-checkpoint restore and SaveModel/LoadModel would
// silently drop parameters.

#include <gtest/gtest.h>

#include "core/autofis.h"
#include "core/fixed_arch_model.h"
#include "core/search_model.h"
#include "core/zoo.h"
#include "test_data.h"

namespace optinter {
namespace {

using testing::HeadBatch;
using testing::SharedTinyData;
using testing::TinyDataWithTriples;

HyperParams TinyHp() {
  HyperParams hp = DefaultHyperParams("tiny");
  hp.seed = 44;
  return hp;
}

size_t StateSize(CtrModel* model) {
  std::vector<Tensor*> state;
  model->CollectState(&state);
  size_t total = 0;
  for (Tensor* t : state) total += t->size();
  return total;
}

class StateCompletenessTest : public ::testing::TestWithParam<std::string> {
};

TEST_P(StateCompletenessTest, CollectStateCoversEveryParameter) {
  const auto& p = SharedTinyData();
  auto model = CreateBaseline(GetParam(), p.data, TinyHp());
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_EQ(StateSize(model->get()), (*model)->ParamCount()) << GetParam();
}

TEST_P(StateCompletenessTest, SnapshotRestoreIsExact) {
  // Copying the state out, perturbing the model by training, and copying
  // the state back must restore the original predictions bit-exactly —
  // this is precisely what the trainer's best-checkpoint logic does.
  const auto& p = SharedTinyData();
  auto model = CreateBaseline(GetParam(), p.data, TinyHp());
  ASSERT_TRUE(model.ok());
  Batch b = HeadBatch(p, 64);
  ForwardContext ctx;
  std::vector<float> before;
  (*model)->Predict(b, &before, &ctx);

  std::vector<Tensor*> state;
  (*model)->CollectState(&state);
  std::vector<Tensor> snapshot;
  snapshot.reserve(state.size());
  for (Tensor* t : state) snapshot.push_back(*t);

  for (int i = 0; i < 5; ++i) (*model)->TrainStep(b);
  std::vector<float> perturbed;
  (*model)->Predict(b, &perturbed, &ctx);
  bool changed = false;
  for (size_t i = 0; i < before.size(); ++i) {
    changed |= before[i] != perturbed[i];
  }
  EXPECT_TRUE(changed) << GetParam() << " did not train";

  for (size_t i = 0; i < state.size(); ++i) *state[i] = snapshot[i];
  std::vector<float> restored;
  (*model)->Predict(b, &restored, &ctx);
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i], restored[i]) << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBaselines, StateCompletenessTest,
    ::testing::Values("LR", "Poly2", "FM", "FFM", "FwFM", "FmFM", "FNN",
                      "IPNN", "OPNN", "DeepFM", "PIN", "OptInter-F",
                      "OptInter-M"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(StateCompletenessTest, SearchModelCoversEveryParameter) {
  const auto& p = SharedTinyData();
  SearchModel model(p.data, TinyHp());
  EXPECT_EQ(StateSize(&model), model.ParamCount());
}

TEST(StateCompletenessTest, AutoFisCoversEveryParameter) {
  const auto& p = SharedTinyData();
  AutoFisSearchModel model(p.data, TinyHp());
  EXPECT_EQ(StateSize(&model), model.ParamCount());
}

TEST(StateCompletenessTest, ThirdOrderFixedArchCoversEveryParameter) {
  // FixedArchModel with memorized triples must include the triple tables.
  const EncodedDataset data = TinyDataWithTriples();
  FixedArchModel model(data, AllFactorize(data.num_pairs()), TinyHp(),
                       "3rd", {0, 1});
  EXPECT_EQ(StateSize(&model), model.ParamCount());
}

}  // namespace
}  // namespace optinter

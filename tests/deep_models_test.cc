// Structural tests for the deep baselines: parameter accounting
// relations between variants, measured against the framework's FNN
// instance (FixedArchModel::MakeFnn, the all-naive architecture).

#include <gtest/gtest.h>

#include "core/fixed_arch_model.h"
#include "models/deep_models.h"
#include "test_data.h"

namespace optinter {
namespace {

using testing::SharedTinyData;

HyperParams TinyHp() {
  HyperParams hp = DefaultHyperParams("tiny");
  hp.seed = 21;
  return hp;
}

size_t NumFields(const EncodedDataset& d) {
  return d.num_categorical() + d.num_continuous();
}

TEST(DeepParamTest, OpnnIsIpnnPlusKernels) {
  // OPNN and IPNN share the exact architecture except the per-pair
  // kernel matrices: Δparams = P · d².
  const auto& p = SharedTinyData();
  HyperParams hp = TinyHp();
  DeepBaselineModel ipnn(p.data, hp, DeepVariant::kIpnn);
  DeepBaselineModel opnn(p.data, hp, DeepVariant::kOpnn);
  const size_t fields = NumFields(p.data);
  const size_t pairs = fields * (fields - 1) / 2;
  EXPECT_EQ(opnn.ParamCount() - ipnn.ParamCount(),
            pairs * hp.embed_dim * hp.embed_dim);
}

TEST(DeepParamTest, DeepFmIsFnnPlusFirstOrder) {
  // DeepFM = FNN + first-order weights (one per vocab entry, plus one
  // per continuous field) + FM bias. The FM second-order term reuses the
  // shared embeddings, so it adds nothing.
  const auto& p = SharedTinyData();
  HyperParams hp = TinyHp();
  auto fnn = FixedArchModel::MakeFnn(p.data, hp);
  DeepBaselineModel deepfm(p.data, hp, DeepVariant::kDeepFm);
  const size_t first_order =
      p.data.TotalOrigVocab() + p.data.num_continuous();
  EXPECT_EQ(deepfm.ParamCount() - fnn->ParamCount(), first_order + 1);
}

TEST(DeepParamTest, PinAddsSubnetsAndWiderInput) {
  const auto& p = SharedTinyData();
  HyperParams hp = TinyHp();
  auto fnn = FixedArchModel::MakeFnn(p.data, hp);
  DeepBaselineModel pin(p.data, hp, DeepVariant::kPin);
  const size_t fields = NumFields(p.data);
  const size_t pairs = fields * (fields - 1) / 2;
  const size_t d = hp.embed_dim;
  const size_t subnet =
      (3 * d * kPinSubnetHidden + kPinSubnetHidden) +
      (kPinSubnetHidden * kPinSubnetOut + kPinSubnetOut);
  const size_t first_hidden = hp.mlp_hidden.front();
  EXPECT_EQ(pin.ParamCount() - fnn->ParamCount(),
            pairs * subnet + pairs * kPinSubnetOut * first_hidden);
}

TEST(DeepParamTest, IpnnWidensFnnInputByPairCount) {
  const auto& p = SharedTinyData();
  HyperParams hp = TinyHp();
  auto fnn = FixedArchModel::MakeFnn(p.data, hp);
  DeepBaselineModel ipnn(p.data, hp, DeepVariant::kIpnn);
  const size_t fields = NumFields(p.data);
  const size_t pairs = fields * (fields - 1) / 2;
  EXPECT_EQ(ipnn.ParamCount() - fnn->ParamCount(),
            pairs * hp.mlp_hidden.front());
}

TEST(DeepParamTest, NamesMatchVariants) {
  const auto& p = SharedTinyData();
  HyperParams hp = TinyHp();
  EXPECT_EQ(DeepBaselineModel(p.data, hp, DeepVariant::kIpnn).Name(),
            "IPNN");
  EXPECT_EQ(DeepBaselineModel(p.data, hp, DeepVariant::kOpnn).Name(),
            "OPNN");
  EXPECT_EQ(DeepBaselineModel(p.data, hp, DeepVariant::kDeepFm).Name(),
            "DeepFM");
  EXPECT_EQ(DeepBaselineModel(p.data, hp, DeepVariant::kPin).Name(),
            "PIN");
}

}  // namespace
}  // namespace optinter

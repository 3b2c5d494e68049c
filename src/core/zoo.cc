#include "core/zoo.h"

#include "core/fixed_arch_model.h"
#include "models/deep_models.h"
#include "models/fm_family.h"
#include "models/lr.h"
#include "models/poly2.h"

namespace optinter {

Result<std::unique_ptr<CtrModel>> CreateBaseline(const std::string& name,
                                                 const EncodedDataset& data,
                                                 const HyperParams& hp) {
  if (BaselineNeedsCross(name) && !data.has_cross()) {
    return Status::FailedPrecondition(
        name + " requires cross-product features; fit the encoder with "
        "build_cross");
  }
  // Shallow models take larger steps (the paper's Table IV also trains
  // LR/FM with their own learning rates): with no MLP to adapt, the raw
  // weights need to travel further in the same epoch budget.
  HyperParams shallow = hp;
  shallow.lr_orig = 1e-2f;
  shallow.lr_cross = 1e-2f;

  std::unique_ptr<CtrModel> model;
  if (name == "LR") {
    model = std::make_unique<LrModel>(data, shallow);
  } else if (name == "Poly2") {
    model = std::make_unique<Poly2Model>(data, shallow);
  } else if (name == "FM") {
    model = std::make_unique<FmFamilyModel>(data, shallow, FmVariant::kFm);
  } else if (name == "FFM") {
    model = std::make_unique<FmFamilyModel>(data, shallow, FmVariant::kFfm);
  } else if (name == "FwFM") {
    model = std::make_unique<FmFamilyModel>(data, shallow, FmVariant::kFwFm);
  } else if (name == "FmFM") {
    model = std::make_unique<FmFamilyModel>(data, shallow, FmVariant::kFmFm);
  } else if (name == "FNN") {
    model = FixedArchModel::MakeFnn(data, hp);
  } else if (name == "IPNN") {
    model = std::make_unique<DeepBaselineModel>(data, hp,
                                                DeepVariant::kIpnn);
  } else if (name == "OPNN") {
    model = std::make_unique<DeepBaselineModel>(data, hp,
                                                DeepVariant::kOpnn);
  } else if (name == "DeepFM") {
    model = std::make_unique<DeepBaselineModel>(data, hp,
                                                DeepVariant::kDeepFm);
  } else if (name == "PIN") {
    model = std::make_unique<DeepBaselineModel>(data, hp, DeepVariant::kPin);
  } else if (name == "OptInter-F") {
    model = FixedArchModel::MakeOptInterF(data, hp);
  } else if (name == "OptInter-M") {
    model = FixedArchModel::MakeOptInterM(data, hp);
  } else {
    return Status::NotFound("unknown baseline '" + name + "'");
  }
  return model;
}

std::vector<std::string> TableVBaselineNames() {
  return {"LR",   "FNN",   "FM",         "IPNN",       "DeepFM", "PIN",
          "OptInter-F", "Poly2", "OptInter-M"};
}

bool BaselineNeedsCross(const std::string& name) {
  return name == "Poly2" || name == "OptInter-M";
}

}  // namespace optinter

// Stale-buffer tests: reused workspaces must not leak old bytes.
//
// Tensor::ResizeForOverwrite reshapes without zero-filling, so an output
// buffer keeps the bytes of an earlier (larger) batch until its kernel
// overwrites them. A kernel that skipped an element would read or return
// stale data, and the sanitizers cannot see a read of an initialized-but-
// stale float. These tests poison every buffer a workspace or context
// keeps with NaN on a large batch, then reuse it on a smaller and on a
// larger (still within capacity) batch: every output must be bitwise
// equal to the output of a fresh workspace.
//
// Also: Linear/Relu Backward on a workspace that never saw a Forward must
// CHECK-fail with a message instead of dereferencing a null input.

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "core/fixed_arch_model.h"
#include "core/search_model.h"
#include "nn/layers.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"
#include "serve/quantized_model.h"
#include "serve/snapshot.h"
#include "synth/profiles.h"
#include "test_data.h"

namespace optinter {
namespace {

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

bool BitwiseEqual(const float* a, const float* b, size_t n) {
  return std::memcmp(a, b, n * sizeof(float)) == 0;
}

::testing::AssertionResult SameBits(const Tensor& got, const Tensor& want) {
  if (!got.SameShape(want)) {
    return ::testing::AssertionFailure()
           << "shape " << got.ShapeString() << " vs " << want.ShapeString();
  }
  if (!BitwiseEqual(got.data(), want.data(), got.size())) {
    return ::testing::AssertionFailure() << "bits differ";
  }
  return ::testing::AssertionSuccess();
}

Tensor RandomTensor(size_t rows, size_t cols, uint64_t seed) {
  Tensor t({rows, cols});
  Rng rng(seed);
  for (size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng.Uniform(-1.0, 1.0));
  }
  return t;
}

void Poison(Tensor* t) { t->Fill(kNaN); }

void Poison(MlpWorkspace* ws) {
  for (Tensor& t : ws->acts) Poison(&t);
  for (Tensor& t : ws->grads) Poison(&t);
  for (LayerNormWorkspace& n : ws->norms) {
    Poison(&n.xhat);
    Poison(&n.inv_std);
  }
}

void Poison(ForwardContext* ctx) {
  Poison(&ctx->emb_out);
  Poison(&ctx->cross_out);
  Poison(&ctx->triple_out);
  Poison(&ctx->z);
  Poison(&ctx->mlp_out);
  Poison(&ctx->mlp);
  ctx->logits.assign(ctx->logits.size(), kNaN);
}

// ---------------------------------------------------------------------------
// Mlp forward/backward.
// ---------------------------------------------------------------------------

struct MlpPass {
  Tensor y;
  Tensor dx;
  std::vector<Tensor> grads;
};

// One forward + backward of `mlp` on batch size `b` through `ws`, writing
// into `out` (whose y/dx buffers may be stale); returns the parameter
// grads accumulated by this pass alone.
void RunMlp(Mlp* mlp, Adam* opt, size_t b, MlpWorkspace* ws, MlpPass* out) {
  const Tensor x = RandomTensor(b, mlp->in_dim(), 100 + b);
  const Tensor dy = RandomTensor(b, mlp->out_dim(), 200 + b);
  opt->ZeroGrad();
  mlp->Forward(x, &out->y, ws);
  mlp->Backward(dy, &out->dx, ws);
  out->grads.clear();
  for (const DenseParam* p : opt->params()) out->grads.push_back(p->grad);
}

void CheckMlpReuse(bool layer_norm) {
  MlpConfig cfg;
  cfg.hidden = {24, 19};
  cfg.out_dim = 3;
  cfg.layer_norm = layer_norm;
  Rng rng(7);
  Mlp mlp("mlp", 37, cfg, &rng);
  Adam opt;
  mlp.RegisterParams(&opt);

  // Large NaN batch first: every activation, gradient and output buffer
  // is sized for it and then explicitly filled with NaN. The reuse sizes
  // straddle the layers' serial/parallel thresholds (2^15 elements).
  MlpWorkspace ws;
  MlpPass reused;
  {
    const size_t big = 3000;
    Tensor x({big, mlp.in_dim()});
    Tensor dy({big, mlp.out_dim()});
    x.Fill(kNaN);
    dy.Fill(kNaN);
    mlp.Forward(x, &reused.y, &ws);
    mlp.Backward(dy, &reused.dx, &ws);
    Poison(&ws);
    Poison(&reused.y);
    Poison(&reused.dx);
  }
  for (size_t b : {5u, 1500u}) {
    SCOPED_TRACE(b);
    RunMlp(&mlp, &opt, b, &ws, &reused);
    MlpWorkspace fresh_ws;
    MlpPass fresh;
    RunMlp(&mlp, &opt, b, &fresh_ws, &fresh);
    EXPECT_TRUE(SameBits(reused.y, fresh.y));
    EXPECT_TRUE(SameBits(reused.dx, fresh.dx));
    ASSERT_EQ(reused.grads.size(), fresh.grads.size());
    for (size_t i = 0; i < fresh.grads.size(); ++i) {
      EXPECT_TRUE(SameBits(reused.grads[i], fresh.grads[i]))
          << "param " << i;
    }
  }
}

TEST(StaleBufferTest, MlpReusedWorkspaceMatchesFresh) { CheckMlpReuse(true); }

TEST(StaleBufferTest, MlpWithoutLayerNormReusedWorkspaceMatchesFresh) {
  CheckMlpReuse(false);
}

// ---------------------------------------------------------------------------
// Model-level Predict with a reused ForwardContext.
// ---------------------------------------------------------------------------

struct TripleData {
  EncodedDataset data;
  Splits splits;
};

// Tiny profile with cross and third-order features built, so a
// FixedArchModel can exercise every Gather (feature, cross, triple).
const TripleData& SharedTripleData() {
  static const TripleData* fx = [] {
    auto* f = new TripleData();
    SynthConfig cfg = TinyConfig();
    cfg.num_rows = 3000;
    cfg.memorize_triples = {{0, 1, 2}};
    RawDataset raw = GenerateSynthetic(cfg);
    Rng rng(5);
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

// A mixed architecture (all three methods) with one memorized triple,
// trained a few steps so no parameter sits at its initial value.
std::shared_ptr<const CtrModel> TrainedMixedModel() {
  const TripleData& f = SharedTripleData();
  HyperParams hp = DefaultHyperParams("tiny");
  hp.mlp_hidden = {24, 12};
  Architecture arch(f.data.num_pairs());
  for (size_t p = 0; p < arch.size(); ++p) {
    arch[p] = static_cast<InterMethod>(p % 3);
  }
  auto model = std::make_unique<FixedArchModel>(f.data, arch, hp, "mixed",
                                                std::vector<size_t>{0});
  Batch b;
  b.data = &f.data;
  b.rows = f.splits.train.data();
  b.size = 128;
  for (int i = 0; i < 4; ++i) model->TrainStep(b);
  return std::shared_ptr<const CtrModel>(std::move(model));
}

// Predicts batches of shrinking and growing size through one context that
// was poisoned after a large batch; each must match a fresh context.
void CheckPredictReuse(const CtrModel& model) {
  const TripleData& f = SharedTripleData();
  auto batch = [&](size_t offset, size_t size) {
    Batch b;
    b.data = &f.data;
    b.rows = f.splits.train.data() + offset;
    b.size = size;
    return b;
  };
  ForwardContext ctx;
  std::vector<float> probs;
  model.Predict(batch(0, 600), &probs, &ctx);
  Poison(&ctx);
  probs.assign(probs.size(), kNaN);
  size_t offset = 11;
  for (size_t size : {7u, 1u, 333u}) {
    SCOPED_TRACE(size);
    model.Predict(batch(offset, size), &probs, &ctx);
    ForwardContext fresh_ctx;
    std::vector<float> fresh;
    model.Predict(batch(offset, size), &fresh, &fresh_ctx);
    ASSERT_EQ(probs.size(), fresh.size());
    EXPECT_TRUE(BitwiseEqual(probs.data(), fresh.data(), fresh.size()));
    offset += size;
  }
}

TEST(StaleBufferTest, FixedArchPredictReusedContextMatchesFresh) {
  CheckPredictReuse(*TrainedMixedModel());
}

// The search's weighted blocks are zeroed before they accumulate, so a
// poisoned z must not leak into them (K = 3 and K = 4).
TEST(StaleBufferTest, SearchPredictReusedContextMatchesFresh) {
  const TripleData& f = SharedTripleData();
  const Batch b{&f.data, f.splits.train.data(), 128};
  for (const std::vector<FactorizeFn>& fns :
       {std::vector<FactorizeFn>{},
        std::vector<FactorizeFn>{FactorizeFn::kHadamard,
                                 FactorizeFn::kInnerProduct}}) {
    SCOPED_TRACE(fns.size());
    SearchModel model(f.data, DefaultHyperParams("tiny"), UpdateMode::kJoint,
                      fns);
    for (int i = 0; i < 4; ++i) model.TrainStep(b);
    CheckPredictReuse(model);
  }
}

TEST(StaleBufferTest, QuantizedPredictReusedContextMatchesFresh) {
  std::shared_ptr<const CtrModel> fp32 = TrainedMixedModel();
  for (QuantMode mode : {QuantMode::kBf16, QuantMode::kInt8}) {
    SCOPED_TRACE(static_cast<int>(mode));
    std::shared_ptr<const CtrModel> q;
    ASSERT_TRUE(serve::QuantizeSnapshot(fp32, mode, &q).ok());
    CheckPredictReuse(*q);
  }
}

// ---------------------------------------------------------------------------
// Backward without Forward.
// ---------------------------------------------------------------------------

TEST(StaleBufferDeathTest, LinearBackwardWithoutForwardFails) {
  Rng rng(1);
  Linear lin("l", 4, 3, 0.01f, 0.0f, &rng);
  LinearWorkspace ws;
  Tensor dy({2, 3});
  Tensor dx;
  EXPECT_DEATH(lin.Backward(dy, &dx, ws),
               "Linear::Backward without a matching Forward");
}

TEST(StaleBufferDeathTest, ReluBackwardWithoutForwardFails) {
  Relu relu;
  ReluWorkspace ws;
  Tensor dy({2, 3});
  Tensor dx;
  EXPECT_DEATH(relu.Backward(dy, &dx, ws),
               "Relu::Backward without a matching Forward");
}

}  // namespace
}  // namespace optinter

// Embedding storage backends (DESIGN.md §12): QR-compositional and
// frequency-tiered tables.
//
// Covers the backend contracts the rest of the substrate leans on:
//  - QR layout arithmetic and row composition (sum and mul combiners),
//  - QR gradient semantics under quotient/remainder row sharing,
//  - tiered hot-id placement, cold-bucket hashing, and collision
//    semantics (colliding cold ids genuinely share one trainable row),
//  - tier-plan resolution precedence (explicit ids > dataset metadata >
//    the 1..K fallback) and the min-vocab dense fallback,
//  - actionable CHECK failures on bad ids / wrong-backend access,
//  - prepared-scatter vs serial table-level scatter bit parity for both backends,
//  - checkpoint -> reload -> quantize round trips with compressed
//    cross tables.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/fixed_arch_model.h"
#include "data/hash_encoder.h"
#include "io/serialize.h"
#include "models/backend_resolve.h"
#include "models/feature_embedding.h"
#include "models/forward_context.h"
#include "models/prepared_batch.h"
#include "nn/embedding.h"
#include "serve/snapshot.h"
#include "test_data.h"

namespace optinter {
namespace {

using serve::QuantizeSnapshot;
using testing::HeadBatch;
using testing::SharedTinyData;

// ---------------------------------------------------------------------------
// QR layout + composition
// ---------------------------------------------------------------------------

TEST(QrBackendTest, DefaultRemainderIsCeilSqrt) {
  EmbeddingTable t("t", 100, 4, 1e-3f, 0.0f, EmbeddingBackendConfig::QR());
  EXPECT_EQ(t.qr_rem(), 10u);    // ceil(sqrt(100))
  EXPECT_EQ(t.qr_num_q(), 10u);  // ceil(100 / 10)
  EXPECT_EQ(t.BackingRows(), 20u);
  EXPECT_EQ(t.ParamCount(), 20u * 4u);
  EXPECT_EQ(t.BackendDesc(), "qr_sum(q=10,r=10)");
}

TEST(QrBackendTest, RemainderClampedToVocab) {
  EmbeddingTable t("t", 5, 2, 1e-3f, 0.0f, EmbeddingBackendConfig::QR(64));
  EXPECT_LE(t.qr_rem(), 5u);
  // Every id must still map to valid, distinct (primary, secondary) rows.
  for (int32_t id = 0; id < 5; ++id) {
    EXPECT_LT(static_cast<size_t>(t.PrimaryRowOf(id)), t.qr_num_q());
    EXPECT_GE(static_cast<size_t>(t.SecondaryRowOf(id)), t.qr_num_q());
    EXPECT_LT(static_cast<size_t>(t.SecondaryRowOf(id)), t.BackingRows());
  }
}

TEST(QrBackendTest, SumCombinerComposesRows) {
  Rng rng(11);
  EmbeddingTable t("t", 30, 4, 1e-3f, 0.0f, EmbeddingBackendConfig::QR());
  t.Init(&rng);
  const size_t rem = t.qr_rem();
  for (int32_t id : {0, 1, 7, 29}) {
    const float* q = t.values().row(static_cast<size_t>(id) / rem);
    const float* r =
        t.values().row(t.qr_num_q() + static_cast<size_t>(id) % rem);
    float dst[4];
    t.CopyRow(id, dst);
    for (size_t k = 0; k < 4; ++k) EXPECT_EQ(dst[k], q[k] + r[k]) << id;
  }
}

TEST(QrBackendTest, MulCombinerComposesRows) {
  Rng rng(12);
  EmbeddingTable t("t", 30, 4, 1e-3f, 0.0f,
                   EmbeddingBackendConfig::QR(0, QrCombine::kMul));
  t.Init(&rng);
  const size_t rem = t.qr_rem();
  for (int32_t id : {0, 3, 17, 29}) {
    const float* q = t.values().row(static_cast<size_t>(id) / rem);
    const float* r =
        t.values().row(t.qr_num_q() + static_cast<size_t>(id) % rem);
    float dst[4];
    t.CopyRow(id, dst);
    for (size_t k = 0; k < 4; ++k) EXPECT_EQ(dst[k], q[k] * r[k]) << id;
  }
}

TEST(QrBackendTest, QuotientSharingIdsAccumulateIntoOneSlot) {
  EmbeddingTable t("t", 100, 2, 1e-3f, 0.0f, EmbeddingBackendConfig::QR());
  // rem = 10: ids 20 and 25 share quotient row 2, distinct remainders.
  ASSERT_EQ(t.PrimaryRowOf(20), t.PrimaryRowOf(25));
  ASSERT_NE(t.SecondaryRowOf(20), t.SecondaryRowOf(25));
  const float g1[2] = {1.0f, 2.0f};
  const float g2[2] = {10.0f, 20.0f};
  t.AccumulateGrad(20, g1);
  t.AccumulateGrad(25, g2);
  const float* prim = t.AccumulatedGradForRow(t.PrimaryRowOf(20));
  ASSERT_NE(prim, nullptr);
  EXPECT_EQ(prim[0], 11.0f);
  EXPECT_EQ(prim[1], 22.0f);
  const float* sec20 = t.AccumulatedGradForRow(t.SecondaryRowOf(20));
  ASSERT_NE(sec20, nullptr);
  EXPECT_EQ(sec20[0], 1.0f);
  const float* sec25 = t.AccumulatedGradForRow(t.SecondaryRowOf(25));
  ASSERT_NE(sec25, nullptr);
  EXPECT_EQ(sec25[0], 10.0f);
}

TEST(QrBackendTest, MulCombinerGradientIsProductRule) {
  Rng rng(13);
  EmbeddingTable t("t", 30, 2, 1e-3f, 0.0f,
                   EmbeddingBackendConfig::QR(0, QrCombine::kMul));
  t.Init(&rng);
  const int32_t id = 8;
  float q[2], r[2];
  std::memcpy(q, t.values().row(static_cast<size_t>(t.PrimaryRowOf(id))),
              sizeof(q));
  std::memcpy(r, t.values().row(static_cast<size_t>(t.SecondaryRowOf(id))),
              sizeof(r));
  const float g[2] = {0.5f, -2.0f};
  t.AccumulateGrad(id, g);
  // d(q ⊙ r)/dq = g ⊙ r,  d/dr = g ⊙ q.
  const float* gq = t.AccumulatedGradForRow(t.PrimaryRowOf(id));
  const float* gr = t.AccumulatedGradForRow(t.SecondaryRowOf(id));
  ASSERT_NE(gq, nullptr);
  ASSERT_NE(gr, nullptr);
  for (size_t k = 0; k < 2; ++k) {
    EXPECT_EQ(gq[k], g[k] * r[k]);
    EXPECT_EQ(gr[k], g[k] * q[k]);
  }
}

// ---------------------------------------------------------------------------
// Tiered placement + collision semantics
// ---------------------------------------------------------------------------

TEST(TieredBackendTest, ExplicitHotIdsGetPrivateRowsInOrder) {
  const auto cfg = EmbeddingBackendConfig::Tiered(2, 4, {7, 9});
  EmbeddingTable t("t", 64, 4, 1e-3f, 0.0f, cfg);
  EXPECT_EQ(t.tier_hot_rows(), 2u);
  EXPECT_EQ(t.tier_buckets(), 4u);
  EXPECT_EQ(t.BackingRows(), 6u);
  EXPECT_EQ(t.PrimaryRowOf(7), 0);
  EXPECT_EQ(t.PrimaryRowOf(9), 1);
  // Cold ids land in the bucket range via the documented stable hash.
  for (int32_t id : {0, 1, 33, 63}) {
    const int32_t expect =
        2 + static_cast<int32_t>(
                ShardStableHash64(static_cast<uint64_t>(id), cfg.tier_salt) %
                4);
    EXPECT_EQ(t.PrimaryRowOf(id), expect) << id;
  }
}

TEST(TieredBackendTest, FallbackHotSetIsLowIds) {
  // No explicit ids, no metadata: ids 1..K claim the private rows (the
  // hashed encoder places the most frequent values there).
  EmbeddingTable t("t", 64, 4, 1e-3f, 0.0f,
                   EmbeddingBackendConfig::Tiered(3, 4));
  EXPECT_EQ(t.PrimaryRowOf(1), 0);
  EXPECT_EQ(t.PrimaryRowOf(2), 1);
  EXPECT_EQ(t.PrimaryRowOf(3), 2);
  EXPECT_GE(t.PrimaryRowOf(0), 3);  // OOV hashes into the cold buckets
}

TEST(TieredBackendTest, CollidingColdIdsShareOneTrainableRow) {
  EmbeddingTable t("t", 256, 2, 1e-3f, 0.0f,
                   EmbeddingBackendConfig::Tiered(2, 3));
  // With 254 cold ids in 3 buckets, collisions are guaranteed; find one.
  int32_t a = -1, b = -1;
  for (int32_t i = 4; i < 256 && b < 0; ++i) {
    for (int32_t j = i + 1; j < 256; ++j) {
      if (t.PrimaryRowOf(i) == t.PrimaryRowOf(j)) {
        a = i;
        b = j;
        break;
      }
    }
  }
  ASSERT_GE(a, 0);
  // Same backing pointer and summed gradients: memorization is genuinely
  // shared, not silently duplicated.
  EXPECT_EQ(t.Row(a), t.Row(b));
  const float g[2] = {1.0f, 3.0f};
  t.AccumulateGrad(a, g);
  t.AccumulateGrad(b, g);
  const float* acc = t.AccumulatedGrad(a);
  ASSERT_NE(acc, nullptr);
  EXPECT_EQ(acc[0], 2.0f);
  EXPECT_EQ(acc[1], 6.0f);
}

// ---------------------------------------------------------------------------
// Plan resolution
// ---------------------------------------------------------------------------

TEST(BackendResolveTest, SmallVocabsFallBackToDense) {
  EmbeddingBackendConfig qr = EmbeddingBackendConfig::QR();
  qr.min_vocab = 16;
  EXPECT_EQ(ResolveBackendForVocab(qr, 8).kind, EmbeddingBackendKind::kDense);
  EXPECT_EQ(ResolveBackendForVocab(qr, 16).kind, EmbeddingBackendKind::kQR);
}

TEST(BackendResolveTest, TierPlanReadsDatasetMetadata) {
  EmbeddingBackendConfig tiered = EmbeddingBackendConfig::Tiered();
  tiered.min_vocab = 2;
  const std::vector<std::vector<int32_t>> hot_meta = {{5, 2, 9}, {1}};
  EmbeddingBackendConfig cfg = ResolveTableBackend(tiered, 64, hot_meta, 0);
  EXPECT_EQ(cfg.tier_hot_ids, (std::vector<int32_t>{5, 2, 9}));
  // Field beyond the metadata: stays empty (1..K fallback at the table).
  cfg = ResolveTableBackend(tiered, 64, hot_meta, 7);
  EXPECT_TRUE(cfg.tier_hot_ids.empty());
  // Explicit policy ids always win over metadata.
  EmbeddingBackendConfig explicit_ids =
      EmbeddingBackendConfig::Tiered(0, 0, {42});
  explicit_ids.min_vocab = 2;
  cfg = ResolveTableBackend(explicit_ids, 64, hot_meta, 0);
  EXPECT_EQ(cfg.tier_hot_ids, (std::vector<int32_t>{42}));
}

// ---------------------------------------------------------------------------
// Actionable failures
// ---------------------------------------------------------------------------

using EmbeddingBackendsDeathTest = ::testing::Test;

TEST(EmbeddingBackendsDeathTest, RowOnQrNamesTheFix) {
  EmbeddingTable t("cross_emb/3", 100, 4, 1e-3f, 0.0f,
                   EmbeddingBackendConfig::QR());
  EXPECT_DEATH(t.Row(1), "cross_emb/3.*CopyRow");
}

TEST(EmbeddingBackendsDeathTest, OutOfRangeIdNamesTableAndVocab) {
  EmbeddingTable t("feat_emb/0", 50, 4, 1e-3f, 0.0f);
  float dst[4];
  EXPECT_DEATH(t.CopyRow(50, dst), "feat_emb/0.*vocab 50.*id 50");
  const float g[4] = {0, 0, 0, 0};
  EXPECT_DEATH(t.AccumulateGrad(-1, g), "feat_emb/0.*AccumulateGrad.*-1");
}

// ---------------------------------------------------------------------------
// Prepared-path parity
// ---------------------------------------------------------------------------

// Reference step of `emb` at the table level: the serial AccumulateGrad /
// AccumulateScaledGradForShard row loop, then SparseAdamStep.
void SerialTableStep(FeatureEmbedding* emb, const Batch& batch,
                     const Tensor& d_out) {
  const EncodedDataset& data = *batch.data;
  const size_t dim = emb->dim();
  const size_t num_cat = emb->num_categorical();
  for (size_t k = 0; k < batch.size; ++k) {
    const size_t r = batch.rows[k];
    for (size_t f = 0; f < num_cat; ++f) {
      emb->cat_table(f).AccumulateGrad(data.cat(r, f), d_out.row(k) + f * dim);
    }
    for (size_t f = 0; f < emb->num_continuous(); ++f) {
      emb->cont_table(f).AccumulateScaledGradForShard(
          EmbeddingTable::ShardOf(0), 0, d_out.row(k) + (num_cat + f) * dim,
          data.cont(r, f));
    }
  }
  for (size_t f = 0; f < num_cat; ++f) emb->cat_table(f).SparseAdamStep();
  for (size_t f = 0; f < emb->num_continuous(); ++f) {
    emb->cont_table(f).SparseAdamStep();
  }
}

// The serial table-level scatter + SparseAdamStep and the layer's
// Prepare/ForwardPrepared/BackwardPrepared/StepPrepared must leave
// bit-identical weights for every backend (they share Adam state and
// accumulate per backing row in the same order), and ForwardPrepared must
// gather what Gather does.
void CheckPreparedParity(const EmbeddingBackendConfig& backend) {
  const auto& p = SharedTinyData();
  Rng rng1(99), rng2(99);
  FeatureEmbedding serial(p.data, 8, 1e-3f, 0.0f, &rng1, backend);
  FeatureEmbedding prepared(p.data, 8, 1e-3f, 0.0f, &rng2, backend);
  Batch batch = HeadBatch(p, 128);
  Rng grad_rng(5);
  Tensor d_out({batch.size, serial.output_dim()});
  for (size_t i = 0; i < d_out.size(); ++i) {
    d_out[i] = static_cast<float>(grad_rng.Gaussian());
  }

  for (int step = 0; step < 3; ++step) {
    Tensor out1;
    serial.Gather(batch, &out1);
    SerialTableStep(&serial, batch, d_out);

    PreparedBatch prep;
    Tensor out2;
    prep.BeginFill(batch);
    prepared.Prepare(batch, &prep);
    prepared.ForwardPrepared(prep, prep.cat, &out2);
    prepared.BackwardPrepared(d_out, prep, prep.cat);
    prepared.StepPrepared();

    ASSERT_EQ(out1.size(), out2.size());
    EXPECT_EQ(std::memcmp(out1.data(), out2.data(),
                          out1.size() * sizeof(float)),
              0)
        << "forward mismatch at step " << step;
  }
  for (size_t f = 0; f < p.data.num_categorical(); ++f) {
    const Tensor& v1 = serial.cat_table(f).values();
    const Tensor& v2 = prepared.cat_table(f).values();
    ASSERT_EQ(v1.size(), v2.size());
    EXPECT_EQ(std::memcmp(v1.data(), v2.data(), v1.size() * sizeof(float)),
              0)
        << "table " << f << " diverged";
  }
  // Continuous tables go through the scaled-accumulate path, which has
  // its own serial/prepared rounding contract (AddScaledRow).
  for (size_t f = 0; f < p.data.num_continuous(); ++f) {
    const Tensor& v1 = serial.cont_table(f).values();
    const Tensor& v2 = prepared.cont_table(f).values();
    ASSERT_EQ(v1.size(), v2.size());
    EXPECT_EQ(std::memcmp(v1.data(), v2.data(), v1.size() * sizeof(float)),
              0)
        << "cont table " << f << " diverged";
  }
}

// Single-table QR parity: the prepared slot scatter (dedup in backing
// space, per-shard row buckets) accumulates the same per-backing-row
// sums as the serial AccumulateGrad loop, and the two Adam steps leave
// bit-identical weights.
TEST(PreparedParityTest, QrSingleTableScatterMatchesLegacy) {
  Rng rng1(7), rng2(7);
  EmbeddingTable legacy("dbg", 40, 4, 1e-3f, 0.0f,
                        EmbeddingBackendConfig::QR());
  EmbeddingTable prepared("dbg", 40, 4, 1e-3f, 0.0f,
                          EmbeddingBackendConfig::QR());
  legacy.Init(&rng1);
  prepared.Init(&rng2);
  const std::vector<int32_t> ids = {5, 17, 5, 23, 9, 38, 17, 0};
  const size_t n = ids.size();
  std::vector<float> grads(n * 4);
  Rng grng(3);
  for (float& g : grads) g = static_cast<float>(grng.Gaussian());

  IdDedupScratch dedup;
  PreparedTable pt;
  PrepareTableIds(prepared, n, [&](size_t k) { return ids[k]; }, &dedup,
                  &pt);
  prepared.BeginPreparedScatter(pt.unique_rows.data(), pt.unique_rows.size());
  for (size_t shard = 0; shard < EmbeddingTable::kGradShards; ++shard) {
    for (const int32_t k : pt.shard_rows[shard]) {
      prepared.AccumulatePreparedGradPrimary(
          static_cast<size_t>(pt.slots[k]), pt.ids[k], grads.data() + k * 4);
    }
    for (const int32_t k : pt.shard_rows2[shard]) {
      prepared.AccumulatePreparedGradSecondary(
          static_cast<size_t>(pt.slots2[k]), pt.ids[k], grads.data() + k * 4);
    }
  }
  for (size_t k = 0; k < n; ++k) {
    legacy.AccumulateGrad(ids[k], grads.data() + k * 4);
  }
  // Per-backing-row grad sums must match bitwise.
  for (size_t s = 0; s < pt.unique_rows.size(); ++s) {
    const int32_t row = pt.unique_rows[s];
    const float* pg = prepared.PreparedGrad(s);
    const float* lg = legacy.AccumulatedGradForRow(row);
    ASSERT_NE(lg, nullptr) << "row " << row << " untouched in legacy";
    EXPECT_EQ(std::memcmp(pg, lg, 4 * sizeof(float)), 0)
        << "grad mismatch backing row " << row << " slot " << s;
  }
  legacy.SparseAdamStep();
  prepared.SparseAdamStepPrepared();
  const Tensor& v1 = legacy.values();
  const Tensor& v2 = prepared.values();
  for (size_t r = 0; r < legacy.BackingRows(); ++r) {
    EXPECT_EQ(std::memcmp(v1.row(r), v2.row(r), 4 * sizeof(float)), 0)
        << "weight mismatch backing row " << r;
  }
}

TEST(PreparedParityTest, QrSum) {
  EmbeddingBackendConfig cfg = EmbeddingBackendConfig::QR();
  cfg.min_vocab = 2;
  CheckPreparedParity(cfg);
}

TEST(PreparedParityTest, QrMul) {
  EmbeddingBackendConfig cfg =
      EmbeddingBackendConfig::QR(0, QrCombine::kMul);
  cfg.min_vocab = 2;
  CheckPreparedParity(cfg);
}

TEST(PreparedParityTest, Tiered) {
  EmbeddingBackendConfig cfg = EmbeddingBackendConfig::Tiered();
  cfg.min_vocab = 2;
  CheckPreparedParity(cfg);
}

// ---------------------------------------------------------------------------
// Checkpoint -> reload -> quantize round trips
// ---------------------------------------------------------------------------

void CheckCheckpointQuantizeRoundTrip(const EmbeddingBackendConfig& cross,
                                      const std::string& tag) {
  const auto& p = SharedTinyData();
  HyperParams hp = DefaultHyperParams("tiny");
  hp.seed = 4242;
  hp.cross_backend = cross;
  hp.cross_backend.min_vocab = 2;

  auto trained = FixedArchModel::MakeOptInterM(p.data, hp);
  Batch b = HeadBatch(p, 128);
  for (int i = 0; i < 3; ++i) trained->TrainStep(b);
  const size_t params = trained->ParamCount();

  Batch eval = HeadBatch(p, 64);
  ForwardContext ctx;
  std::vector<float> ref_probs;
  trained->Predict(eval, &ref_probs, &ctx);

  const std::string path =
      ::testing::TempDir() + "backend_roundtrip_" + tag + ".bin";
  ASSERT_TRUE(SaveModel(trained.get(), path).ok());

  // Reload into an identically constructed model: bitwise equal output.
  auto reloaded = FixedArchModel::MakeOptInterM(p.data, hp);
  ASSERT_TRUE(LoadModel(reloaded.get(), path).ok());
  EXPECT_EQ(reloaded->ParamCount(), params);
  std::vector<float> probs;
  reloaded->Predict(eval, &probs, &ctx);
  ASSERT_EQ(probs.size(), ref_probs.size());
  for (size_t i = 0; i < probs.size(); ++i) {
    EXPECT_EQ(probs[i], ref_probs[i]) << i;
  }

  // Quantize the reloaded snapshot: bf16 must track fp32 closely even
  // through composed/remapped rows.
  std::shared_ptr<const CtrModel> fp32(std::move(reloaded));
  std::shared_ptr<const CtrModel> q16;
  ASSERT_TRUE(QuantizeSnapshot(fp32, QuantMode::kBf16, &q16).ok());
  EXPECT_EQ(q16->ParamCount(), params);
  std::vector<float> qprobs;
  q16->Predict(eval, &qprobs, &ctx);
  ASSERT_EQ(qprobs.size(), ref_probs.size());
  for (size_t i = 0; i < qprobs.size(); ++i) {
    EXPECT_NEAR(qprobs[i], ref_probs[i], 0.01) << i;
  }
  std::remove(path.c_str());
}

TEST(BackendRoundTripTest, QrCrossTables) {
  CheckCheckpointQuantizeRoundTrip(EmbeddingBackendConfig::QR(), "qr");
}

TEST(BackendRoundTripTest, QrMulCrossTables) {
  CheckCheckpointQuantizeRoundTrip(
      EmbeddingBackendConfig::QR(0, QrCombine::kMul), "qr_mul");
}

TEST(BackendRoundTripTest, TieredCrossTables) {
  CheckCheckpointQuantizeRoundTrip(EmbeddingBackendConfig::Tiered(),
                                   "tiered");
}

}  // namespace
}  // namespace optinter

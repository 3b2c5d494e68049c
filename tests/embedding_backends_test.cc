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
//  - the embedding layers' prepared gather/scatter/step (FeatureEmbedding,
//    and CrossEmbedding over pairs and triples) vs a test-local reference
//    step, bit for bit, for every backend,
//  - checkpoint -> reload -> quantize round trips with compressed
//    cross tables.

#include <gtest/gtest.h>

#include <cstdio>
#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/fixed_arch_model.h"
#include "data/hash_encoder.h"
#include "io/serialize.h"
#include "models/backend_resolve.h"
#include "models/cross_embedding.h"
#include "models/feature_embedding.h"
#include "models/forward_context.h"
#include "models/prepared_batch.h"
#include "nn/embedding.h"
#include "prepared_scatter.h"
#include "serve/snapshot.h"
#include "tensor/simd.h"
#include "test_data.h"

namespace optinter {
namespace {

using serve::QuantizeSnapshot;
using testing::GradRows;
using testing::HeadBatch;
using testing::PreparedGradOfRow;
using testing::ScatterIntoTable;
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
  PreparedTable pt;
  ScatterIntoTable(&t, {20, 25}, GradRows({{1.0f, 2.0f}, {10.0f, 20.0f}}),
                   &pt);
  EXPECT_EQ(pt.unique_rows.size(), 3u);  // one Q row, two R rows
  const float* prim = PreparedGradOfRow(t, pt, t.PrimaryRowOf(20));
  ASSERT_NE(prim, nullptr);
  EXPECT_EQ(prim[0], 11.0f);
  EXPECT_EQ(prim[1], 22.0f);
  const float* sec20 = PreparedGradOfRow(t, pt, t.SecondaryRowOf(20));
  ASSERT_NE(sec20, nullptr);
  EXPECT_EQ(sec20[0], 1.0f);
  const float* sec25 = PreparedGradOfRow(t, pt, t.SecondaryRowOf(25));
  ASSERT_NE(sec25, nullptr);
  EXPECT_EQ(sec25[0], 10.0f);
  t.ClearPreparedGrads();
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
  PreparedTable pt;
  ScatterIntoTable(&t, {id}, GradRows({{g[0], g[1]}}), &pt);
  // d(q ⊙ r)/dq = g ⊙ r,  d/dr = g ⊙ q.
  const float* gq = PreparedGradOfRow(t, pt, t.PrimaryRowOf(id));
  const float* gr = PreparedGradOfRow(t, pt, t.SecondaryRowOf(id));
  ASSERT_NE(gq, nullptr);
  ASSERT_NE(gr, nullptr);
  for (size_t k = 0; k < 2; ++k) {
    EXPECT_EQ(gq[k], g[k] * r[k]);
    EXPECT_EQ(gr[k], g[k] * q[k]);
  }
  t.ClearPreparedGrads();
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
  PreparedTable pt;
  ScatterIntoTable(&t, {a, b}, GradRows({{1.0f, 3.0f}, {1.0f, 3.0f}}), &pt);
  EXPECT_EQ(pt.unique_rows.size(), 1u);
  const float* acc = PreparedGradOfRow(t, pt, t.PrimaryRowOf(a));
  ASSERT_NE(acc, nullptr);
  EXPECT_EQ(acc[0], 2.0f);
  EXPECT_EQ(acc[1], 6.0f);
  t.ClearPreparedGrads();
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
  IdDedupScratch dedup;
  PreparedTable pt;
  EXPECT_DEATH(PrepareTableIds(
                   t, 1, [](size_t) { return -1; }, &dedup, &pt),
               "feat_emb/0.*vocab 50.*Prepare id -1");
}

// ---------------------------------------------------------------------------
// Prepared-path parity
// ---------------------------------------------------------------------------

// Test-local reference for one sparse step of a table, built on nothing
// of the prepared scatter but the optimizer: batch row k has logical id
// ids[k], upstream gradient grads[k] (dim floats) and, for a continuous
// table, value (*scales)[k]. Each backing row's gradient is summed over
// the rows in ascending order — plain += for sum-combine,
// simd::MulAddScalar for the QR-mul product rule and the continuous
// scale. By simd.h's lane/tail contract these are element-exact twins of
// embedding.cc's AddRow, AddProductRow and AddScaledRow.
using RowSums = std::map<int32_t, std::vector<float>>;

RowSums ReferenceRowSums(const EmbeddingTable& table,
                         const std::vector<int32_t>& ids,
                         const std::vector<const float*>& grads,
                         const std::vector<float>* scales = nullptr) {
  const size_t dim = table.dim();
  const bool mul =
      table.HasSecondary() && table.qr_combine() == QrCombine::kMul;
  RowSums sums;
  auto sum_of = [&](int32_t row) {
    std::vector<float>& sum = sums[row];
    sum.resize(dim, 0.0f);
    return sum.data();
  };
  for (size_t k = 0; k < ids.size(); ++k) {
    const float* g = grads[k];
    const int32_t q = table.PrimaryRowOf(ids[k]);
    float* qsum = sum_of(q);
    if (!table.HasSecondary()) {
      for (size_t i = 0; i < dim; ++i) {
        qsum[i] = scales != nullptr
                      ? simd::MulAddScalar(g[i], (*scales)[k], qsum[i])
                      : qsum[i] + g[i];
      }
      continue;
    }
    // QR: the quotient row's factor is the remainder row and vice versa.
    const int32_t r = table.SecondaryRowOf(ids[k]);
    float* rsum = sum_of(r);
    const float* qrow = table.values().row(static_cast<size_t>(q));
    const float* rrow = table.values().row(static_cast<size_t>(r));
    for (size_t i = 0; i < dim; ++i) {
      qsum[i] = mul ? simd::MulAddScalar(g[i], rrow[i], qsum[i])
                    : qsum[i] + g[i];
      rsum[i] = mul ? simd::MulAddScalar(g[i], qrow[i], rsum[i])
                    : rsum[i] + g[i];
    }
  }
  return sums;
}

// Applies `sums` through the table's one optimizer body: each sum lands
// in a fresh slot (sum·1 + 0 is exact) and SparseAdamStepPrepared updates
// its backing row.
void ApplyReferenceStep(EmbeddingTable* table, const RowSums& sums) {
  std::vector<int32_t> rows;
  for (const auto& entry : sums) rows.push_back(entry.first);
  table->BeginPreparedScatter(rows.data(), rows.size());
  size_t slot = 0;
  for (const auto& entry : sums) {
    table->AccumulatePreparedGradScaled(slot++, entry.second.data(), 1.0f);
  }
  table->SparseAdamStepPrepared();
}

// The reference step of every table of `emb`: categorical tables read
// their ids from the dataset, continuous tables scale by the value.
void ReferenceStep(FeatureEmbedding* emb, const Batch& batch,
                   const Tensor& d_out) {
  const EncodedDataset& data = *batch.data;
  const size_t dim = emb->dim();
  const size_t num_cat = emb->num_categorical();
  std::vector<int32_t> ids(batch.size);
  std::vector<const float*> grads(batch.size);
  for (size_t f = 0; f < num_cat; ++f) {
    for (size_t k = 0; k < batch.size; ++k) {
      ids[k] = data.cat(batch.rows[k], f);
      grads[k] = d_out.row(k) + f * dim;
    }
    ApplyReferenceStep(&emb->cat_table(f),
                       ReferenceRowSums(emb->cat_table(f), ids, grads));
  }
  std::vector<float> values(batch.size);
  for (size_t f = 0; f < emb->num_continuous(); ++f) {
    for (size_t k = 0; k < batch.size; ++k) {
      ids[k] = 0;
      grads[k] = d_out.row(k) + (num_cat + f) * dim;
      values[k] = data.cont(batch.rows[k], f);
    }
    ApplyReferenceStep(
        &emb->cont_table(f),
        ReferenceRowSums(emb->cont_table(f), ids, grads, &values));
  }
}

void ReferenceStep(CrossEmbedding* emb, const Batch& batch,
                   const Tensor& d_out) {
  const CrossIds cross = emb->Ids(*batch.data);
  std::vector<int32_t> ids(batch.size);
  std::vector<const float*> grads(batch.size);
  for (size_t t = 0; t < emb->num_blocks(); ++t) {
    for (size_t k = 0; k < batch.size; ++k) {
      ids[k] = cross.at(batch.rows[k], emb->columns()[t]);
      grads[k] = d_out.row(k) + t * emb->dim();
    }
    ApplyReferenceStep(&emb->table(t),
                       ReferenceRowSums(emb->table(t), ids, grads));
  }
}

// Three training steps of `layer` against three reference steps of
// `reference` (an identically constructed layer) with one fixed Gaussian
// d_out. `prepared_step(d_out, &out)` runs layer's Prepare →
// ForwardPrepared (into out) → BackwardPrepared → StepPrepared. Each
// step, ForwardPrepared must gather what Gather does on the same weights;
// at the end both layers must hold bit-identical tables.
template <typename Layer, typename PreparedStep>
void CheckLayerParity(Layer* layer, Layer* reference, const Batch& batch,
                      PreparedStep&& prepared_step) {
  Rng grad_rng(5);
  Tensor d_out({batch.size, layer->output_dim()});
  for (size_t i = 0; i < d_out.size(); ++i) {
    d_out[i] = static_cast<float>(grad_rng.Gaussian());
  }
  for (int step = 0; step < 3; ++step) {
    Tensor gathered, forwarded;
    layer->Gather(batch, &gathered);
    prepared_step(d_out, &forwarded);
    ReferenceStep(reference, batch, d_out);
    ASSERT_EQ(gathered.size(), forwarded.size());
    EXPECT_EQ(std::memcmp(gathered.data(), forwarded.data(),
                          gathered.size() * sizeof(float)),
              0)
        << "forward mismatch at step " << step;
  }
  std::vector<Tensor*> got, want;
  layer->CollectState(&got);
  reference->CollectState(&want);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i]->size(), want[i]->size());
    EXPECT_EQ(std::memcmp(got[i]->data(), want[i]->data(),
                          got[i]->size() * sizeof(float)),
              0)
        << "table " << i << " diverged";
  }
}

// FeatureEmbedding's categorical tables and its continuous tables (the
// scaled-accumulate path) against the reference.
void CheckPreparedParity(const EmbeddingBackendConfig& backend) {
  const auto& p = SharedTinyData();
  Rng rng1(99), rng2(99);
  FeatureEmbedding layer(p.data, 8, 1e-3f, 0.0f, &rng1, backend);
  FeatureEmbedding reference(p.data, 8, 1e-3f, 0.0f, &rng2, backend);
  const Batch batch = HeadBatch(p, 128);
  CheckLayerParity(&layer, &reference, batch,
                   [&](const Tensor& d_out, Tensor* out) {
                     PreparedBatch prep;
                     prep.BeginFill(batch);
                     layer.Prepare(batch, &prep);
                     layer.ForwardPrepared(prep, prep.cat, out);
                     layer.BackwardPrepared(d_out, prep, prep.cat);
                     layer.StepPrepared();
                   });
}

// Single-table QR parity: the prepared slot scatter (dedup in backing
// space, per-shard row buckets) accumulates the same per-backing-row sums
// as the reference, and the two Adam steps leave bit-identical weights.
TEST(PreparedParityTest, QrSingleTableScatterMatchesLegacy) {
  Rng rng1(7), rng2(7);
  EmbeddingTable reference("dbg", 40, 4, 1e-3f, 0.0f,
                           EmbeddingBackendConfig::QR());
  EmbeddingTable prepared("dbg", 40, 4, 1e-3f, 0.0f,
                          EmbeddingBackendConfig::QR());
  reference.Init(&rng1);
  prepared.Init(&rng2);
  const std::vector<int32_t> ids = {5, 17, 5, 23, 9, 38, 17, 0};
  const size_t n = ids.size();
  Tensor grads({n, 4});
  Rng grng(3);
  for (size_t i = 0; i < grads.size(); ++i) {
    grads[i] = static_cast<float>(grng.Gaussian());
  }

  PreparedTable pt;
  ScatterIntoTable(&prepared, ids, grads, &pt);
  std::vector<const float*> grad_rows(n);
  for (size_t k = 0; k < n; ++k) grad_rows[k] = grads.row(k);
  const RowSums sums = ReferenceRowSums(reference, ids, grad_rows);
  // Per-backing-row grad sums must match bitwise.
  ASSERT_EQ(sums.size(), pt.unique_rows.size());
  for (const auto& [row, sum] : sums) {
    const float* pg = PreparedGradOfRow(prepared, pt, row);
    ASSERT_NE(pg, nullptr) << "row " << row << " untouched in prepared";
    EXPECT_EQ(std::memcmp(pg, sum.data(), 4 * sizeof(float)), 0)
        << "grad mismatch backing row " << row;
  }
  ApplyReferenceStep(&reference, sums);
  prepared.SparseAdamStepPrepared();
  const Tensor& v1 = reference.values();
  const Tensor& v2 = prepared.values();
  for (size_t r = 0; r < reference.BackingRows(); ++r) {
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

// CrossEmbedding over every pair, or both triples, of the tiny dataset,
// per backend: ForwardPrepared == Gather and three prepared steps ==
// three reference steps, bitwise. The pair batch is large enough to fan
// the gather and scatter across the pool.
struct CrossParityCase {
  const char* name;
  CrossKind kind;
  EmbeddingBackendConfig backend;
};

void PrintTo(const CrossParityCase& c, std::ostream* os) { *os << c.name; }

class CrossParityTest : public ::testing::TestWithParam<CrossParityCase> {};

TEST_P(CrossParityTest, PreparedStepMatchesReference) {
  static const EncodedDataset* data =
      new EncodedDataset(testing::TinyDataWithTriples());
  const CrossParityCase& c = GetParam();
  EmbeddingBackendConfig backend = c.backend;
  backend.min_vocab = 2;
  const bool pair = c.kind == CrossKind::kPair;
  std::vector<size_t> columns(pair ? data->num_pairs() : data->num_triples());
  for (size_t i = 0; i < columns.size(); ++i) columns[i] = i;
  Rng rng1(21), rng2(21);
  CrossEmbedding layer(*data, c.kind, columns, 8, 1e-3f, 0.0f, &rng1,
                       backend);
  CrossEmbedding reference(*data, c.kind, columns, 8, 1e-3f, 0.0f, &rng2,
                           backend);
  const std::vector<size_t>& train = SharedTinyData().splits.train;
  Batch batch;
  batch.data = data;
  batch.rows = train.data();
  batch.size = std::min<size_t>(512, train.size());
  CheckLayerParity(&layer, &reference, batch,
                   [&](const Tensor& d_out, Tensor* out) {
                     IdDedupScratch dedup;
                     std::vector<PreparedTable> tables;
                     layer.Prepare(batch, &dedup, &tables);
                     layer.ForwardPrepared(tables, batch.size, out);
                     layer.BackwardPrepared(d_out, tables);
                     layer.StepPrepared();
                   });
}

INSTANTIATE_TEST_SUITE_P(
    PairsAndTriples, CrossParityTest,
    ::testing::Values(
        CrossParityCase{"pair_dense", CrossKind::kPair,
                        EmbeddingBackendConfig::Dense()},
        CrossParityCase{"pair_qr_sum", CrossKind::kPair,
                        EmbeddingBackendConfig::QR()},
        CrossParityCase{"pair_qr_mul", CrossKind::kPair,
                        EmbeddingBackendConfig::QR(0, QrCombine::kMul)},
        CrossParityCase{"pair_tiered", CrossKind::kPair,
                        EmbeddingBackendConfig::Tiered()},
        CrossParityCase{"triple_dense", CrossKind::kTriple,
                        EmbeddingBackendConfig::Dense()},
        CrossParityCase{"triple_qr_sum", CrossKind::kTriple,
                        EmbeddingBackendConfig::QR()},
        CrossParityCase{"triple_qr_mul", CrossKind::kTriple,
                        EmbeddingBackendConfig::QR(0, QrCombine::kMul)},
        CrossParityCase{"triple_tiered", CrossKind::kTriple,
                        EmbeddingBackendConfig::Tiered()}),
    [](const ::testing::TestParamInfo<CrossParityCase>& info) {
      return std::string(info.param.name);
    });

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
      testing::TempPath("backend_roundtrip_" + tag + ".bin");
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

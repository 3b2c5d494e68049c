// Serving-layer tests: request validation, snapshot deploy/hot-swap,
// row invariance of Predict across batch sizes, micro-batching, and the
// concurrent-clients-during-swap workload (the TSan job runs this binary
// too — any torn read or data race in the snapshot exchange shows up
// there).

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdlib>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "core/fixed_arch_model.h"
#include "core/search_model.h"
#include "golden_util.h"
#include "http_get.h"
#include "io/serialize.h"
#include "obs/registry.h"
#include "serve/request.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "test_data.h"
#include "train/trainer.h"

namespace optinter {
namespace {

using serve::ModelSnapshot;
using serve::PredictRequest;
using serve::PredictServer;
using serve::RequestArena;
using serve::RequestFromRow;
using serve::ServeOptions;
using serve::SnapshotSlot;
using serve::SwapFromCheckpoint;
using testing::SharedTinyData;
using testing::TempPath;

HyperParams TinyHp() {
  HyperParams hp = DefaultHyperParams("tiny");
  hp.seed = 77;
  return hp;
}

/// Trains a fresh OptInter-M for `steps` steps on the head of the train
/// split. Same hp/seed → identical construction, so checkpoints from any
/// of these load into any other.
std::unique_ptr<FixedArchModel> TrainedModel(int steps) {
  const auto& p = SharedTinyData();
  auto model = FixedArchModel::MakeOptInterM(p.data, TinyHp());
  Batch b = testing::HeadBatch(p, 128);
  for (int i = 0; i < steps; ++i) model->TrainStep(b);
  return model;
}

TEST(RequestArenaTest, RoundTripsRow) {
  const auto& p = SharedTinyData();
  RequestArena arena(p.data);
  const size_t row = p.splits.train[3];
  ASSERT_TRUE(arena.Append(RequestFromRow(p.data, row)).ok());
  EXPECT_EQ(arena.size(), 1u);
  const Batch b = arena.MakeBatch();
  ASSERT_EQ(b.size, 1u);
  for (size_t f = 0; f < p.data.num_categorical(); ++f) {
    EXPECT_EQ(b.data->cat(0, f), p.data.cat(row, f));
  }
  for (size_t f = 0; f < p.data.num_continuous(); ++f) {
    EXPECT_EQ(b.data->cont(0, f), p.data.cont(row, f));
  }
  for (size_t pr = 0; pr < p.data.num_pairs(); ++pr) {
    EXPECT_EQ(b.data->cross(0, pr), p.data.cross(row, pr));
  }
}

TEST(RequestArenaTest, RejectsFieldCountMismatch) {
  const auto& p = SharedTinyData();
  RequestArena arena(p.data);
  PredictRequest req = RequestFromRow(p.data, p.splits.train[0]);
  req.cat_ids.pop_back();
  Status st = arena.Append(req);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(arena.size(), 0u);  // arena unchanged on rejection

  req = RequestFromRow(p.data, p.splits.train[0]);
  req.cross_ids.clear();
  EXPECT_EQ(arena.Append(req).code(), StatusCode::kInvalidArgument);
}

TEST(RequestArenaTest, RejectsOutOfVocabIds) {
  const auto& p = SharedTinyData();
  RequestArena arena(p.data);
  PredictRequest req = RequestFromRow(p.data, p.splits.train[0]);
  req.cat_ids[1] = static_cast<int32_t>(p.data.cat_vocab_sizes[1]);
  Status st = arena.Append(req);
  EXPECT_EQ(st.code(), StatusCode::kOutOfRange);
  // The message names the offending field so the caller can fix its
  // encoder, not just "bad request".
  EXPECT_NE(st.message().find("field 1"), std::string::npos);
  EXPECT_EQ(arena.size(), 0u);

  req = RequestFromRow(p.data, p.splits.train[0]);
  req.cross_ids[0] = -1;
  EXPECT_EQ(arena.Append(req).code(), StatusCode::kOutOfRange);
}

TEST(SnapshotTest, PublishBumpsVersionAndPinsOldSnapshot) {
  SnapshotSlot slot;
  std::shared_ptr<const CtrModel> a = TrainedModel(1);
  std::shared_ptr<const CtrModel> b = TrainedModel(2);
  ASSERT_TRUE(slot.Publish(a).ok());
  EXPECT_EQ(slot.version(), 1u);
  std::shared_ptr<const ModelSnapshot> pinned = slot.Acquire();
  ASSERT_TRUE(slot.Publish(b).ok());
  EXPECT_EQ(slot.version(), 2u);
  // The pinned generation stays whole and alive across the swap.
  EXPECT_EQ(pinned->version, 1u);
  EXPECT_EQ(pinned->model.get(), a.get());
  EXPECT_EQ(slot.Acquire()->model.get(), b.get());
}

TEST(SnapshotTest, SwapFromBadCheckpointKeepsOldModelLive) {
  const auto& p = SharedTinyData();
  SnapshotSlot slot;
  std::shared_ptr<const CtrModel> a = TrainedModel(1);
  ASSERT_TRUE(slot.Publish(a).ok());

  auto factory = [&]() -> std::unique_ptr<CtrModel> {
    return FixedArchModel::MakeOptInterM(p.data, TinyHp());
  };
  Status st = SwapFromCheckpoint(&slot, factory,
                                 TempPath("no_such_checkpoint.bin"));
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(slot.version(), 1u);
  EXPECT_EQ(slot.Acquire()->model.get(), a.get());
}

// Every Predict assembles z with the same row assembler at every batch
// size; a row's answer must not depend on its batch. 2048 rows cross the
// parallel assembly cut-off; 1 and 32 stay serial. The search models
// (K = 3 and K = 4) run the same assembler over weighted blocks.
TEST(RowInvarianceTest, RowAloneMatchesRowInsideBatches) {
  const auto& p = SharedTinyData();
  // The memorized-triple golden's model: one triple next to a mixed
  // m/f/n pairwise architecture.
  const EncodedDataset data = testing::TinyDataWithTriples();
  auto fp32 = std::make_shared<FixedArchModel>(
      data, testing::MixedArchitecture(data.num_pairs()), TinyHp(),
      "OptInter-3rd", std::vector<size_t>{1});
  const std::vector<size_t>& rows = p.splits.train;
  ASSERT_GE(rows.size(), 2048u);
  Batch train{&data, rows.data(), 256};
  for (int i = 0; i < 3; ++i) fp32->TrainStep(train);
  std::shared_ptr<const CtrModel> int8, bf16;
  ASSERT_TRUE(serve::QuantizeSnapshot(fp32, QuantMode::kInt8, &int8).ok());
  ASSERT_TRUE(serve::QuantizeSnapshot(fp32, QuantMode::kBf16, &bf16).ok());

  const auto check = [&](const CtrModel& model, const char* what) {
    ForwardContext ctx;
    std::vector<float> b32, b2048, alone;
    model.Predict(Batch{&data, rows.data(), 32}, &b32, &ctx);
    model.Predict(Batch{&data, rows.data(), 2048}, &b2048, &ctx);
    for (size_t k = 0; k < 32; ++k) {
      model.Predict(Batch{&data, &rows[k], 1}, &alone, &ctx);
      ASSERT_EQ(alone.size(), 1u);
      const uint32_t bits = std::bit_cast<uint32_t>(alone[0]);
      EXPECT_EQ(bits, std::bit_cast<uint32_t>(b32[k])) << what << " row " << k;
      EXPECT_EQ(bits, std::bit_cast<uint32_t>(b2048[k]))
          << what << " row " << k;
    }
  };
  check(*fp32, "fp32");
  check(*int8, "int8");
  check(*bf16, "bf16");
  SearchModel search3(data, TinyHp());
  SearchModel search4(data, TinyHp(), UpdateMode::kJoint,
                      {FactorizeFn::kHadamard, FactorizeFn::kInnerProduct});
  for (int i = 0; i < 3; ++i) {
    search3.TrainStep(train);
    search4.TrainStep(train);
  }
  check(search3, "search K = 3");
  check(search4, "search K = 4");
  fp32->Freeze();  // packs the MLP that fp32 and bf16 then run
  check(*fp32, "frozen fp32");
  check(*bf16, "bf16 over the frozen source");
}

TEST(PredictServerTest, RejectsBeforeDeployAndBadRequests) {
  const auto& p = SharedTinyData();
  PredictServer server(p.data);
  PredictRequest req = RequestFromRow(p.data, p.splits.train[0]);
  EXPECT_EQ(server.PredictNow(req).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(server.Submit(req).status().code(),
            StatusCode::kFailedPrecondition);

  ASSERT_TRUE(server.Deploy(TrainedModel(1)).ok());
  req.cat_ids[0] = -5;
  EXPECT_EQ(server.PredictNow(req).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(server.Submit(req).status().code(), StatusCode::kOutOfRange);
}

TEST(PredictServerTest, DeployRejectsNullModel) {
  const auto& p = SharedTinyData();
  PredictServer server(p.data);
  Status st = server.Deploy(nullptr);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(server.DeployedVersion(), 0u);
}

TEST(PredictServerTest, PredictNowMatchesDirectPredictBitwise) {
  const auto& p = SharedTinyData();
  auto model = TrainedModel(5);
  const FixedArchModel* raw = model.get();
  PredictServer server(p.data);
  ASSERT_TRUE(server.Deploy(std::move(model)).ok());
  ForwardContext ctx;
  std::vector<float> direct;
  for (size_t k = 0; k < 32; ++k) {
    const size_t row = p.splits.test[k];
    Batch b;
    b.data = &p.data;
    b.rows = &row;
    b.size = 1;
    static_cast<const CtrModel*>(raw)->Predict(b, &direct, &ctx);
    Result<float> served = server.PredictNow(RequestFromRow(p.data, row));
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    EXPECT_EQ(*served, direct[0]) << "row " << row;
  }
}

TEST(PredictServerTest, SubmitCoalescesAndMatchesBatchPredict) {
  const auto& p = SharedTinyData();
  auto model = TrainedModel(5);
  const FixedArchModel* raw = model.get();
  ServeOptions opts;
  opts.max_batch = 16;
  opts.flush_deadline_us = 2000;
  PredictServer server(p.data, opts);
  ASSERT_TRUE(server.Deploy(std::move(model)).ok());

  constexpr size_t kN = 48;
  std::vector<std::future<float>> futures;
  for (size_t k = 0; k < kN; ++k) {
    auto fut = server.Submit(RequestFromRow(p.data, p.splits.test[k]));
    ASSERT_TRUE(fut.ok()) << fut.status().ToString();
    futures.push_back(std::move(*fut));
  }
  server.Drain();
  EXPECT_EQ(server.pending(), 0u);

  Batch b;
  b.data = &p.data;
  b.rows = p.splits.test.data();
  b.size = kN;
  ForwardContext ctx;
  std::vector<float> direct;
  static_cast<const CtrModel*>(raw)->Predict(b, &direct, &ctx);
  for (size_t k = 0; k < kN; ++k) {
    EXPECT_EQ(futures[k].get(), direct[k]) << "row " << k;
  }
}

TEST(PredictServerTest, DeadlineFlushesPartialBatch) {
  const auto& p = SharedTinyData();
  ServeOptions opts;
  opts.max_batch = 1024;  // never fills; only the deadline can flush
  opts.flush_deadline_us = 500;
  PredictServer server(p.data, opts);
  ASSERT_TRUE(server.Deploy(TrainedModel(1)).ok());
  auto fut = server.Submit(RequestFromRow(p.data, p.splits.train[0]));
  ASSERT_TRUE(fut.ok());
  EXPECT_EQ(fut->wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  server.Drain();
  EXPECT_EQ(server.pending(), 0u);
}

TEST(PredictServerTest, BackpressureRejectsWhenQueueFull) {
  const auto& p = SharedTinyData();
  ServeOptions opts;
  opts.max_batch = 1024;
  opts.flush_deadline_us = 200000;  // hold the queue long enough to fill
  opts.max_pending = 4;
  PredictServer server(p.data, opts);
  ASSERT_TRUE(server.Deploy(TrainedModel(1)).ok());
  std::vector<std::future<float>> futures;
  bool saw_reject = false;
  for (size_t k = 0; k < 64; ++k) {
    auto fut = server.Submit(RequestFromRow(p.data, p.splits.train[0]));
    if (fut.ok()) {
      futures.push_back(std::move(*fut));
    } else {
      EXPECT_EQ(fut.status().code(), StatusCode::kFailedPrecondition);
      saw_reject = true;
      break;
    }
  }
  EXPECT_TRUE(saw_reject);
  server.Drain();
}

TEST(PredictServerTest, CheckpointRoundTripServesIdenticalProbabilities) {
  const auto& p = SharedTinyData();
  const std::string ckpt = TempPath("serve_roundtrip.ckpt");
  auto model = TrainedModel(8);
  ASSERT_TRUE(SaveModel(model.get(), ckpt).ok());

  PredictServer server(p.data);
  ASSERT_TRUE(server.Deploy(std::move(model)).ok());
  EXPECT_EQ(server.DeployedVersion(), 1u);
  std::vector<float> before;
  for (size_t k = 0; k < 16; ++k) {
    auto r = server.PredictNow(RequestFromRow(p.data, p.splits.test[k]));
    ASSERT_TRUE(r.ok());
    before.push_back(*r);
  }
  // Hot-swap to a FRESH model restored from the same checkpoint: the
  // serialize → reload → serve round trip must be bitwise lossless.
  ASSERT_TRUE(server
                  .DeployCheckpoint(
                      [&]() -> std::unique_ptr<CtrModel> {
                        return FixedArchModel::MakeOptInterM(p.data,
                                                             TinyHp());
                      },
                      ckpt)
                  .ok());
  EXPECT_EQ(server.DeployedVersion(), 2u);
  for (size_t k = 0; k < 16; ++k) {
    auto r = server.PredictNow(RequestFromRow(p.data, p.splits.test[k]));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, before[k]) << "row " << k;
  }
}

// The hot-swap contract under fire: clients hammer PredictNow and Submit
// while another thread swaps between two checkpoints. Every returned
// probability must EXACTLY equal one whole generation's answer for that
// row — any blend of generations (torn read) fails the membership check,
// and TSan checks the same workload for data races in CI.
TEST(PredictServerTest, ConcurrentClientsSeeOnlyWholeSnapshots) {
  const auto& p = SharedTinyData();
  const std::string ckpt_a = TempPath("swap_a.ckpt");
  const std::string ckpt_b = TempPath("swap_b.ckpt");
  {
    auto a = TrainedModel(3);
    ASSERT_TRUE(SaveModel(a.get(), ckpt_a).ok());
    auto b = TrainedModel(12);
    ASSERT_TRUE(SaveModel(b.get(), ckpt_b).ok());
  }
  auto factory = [&]() -> std::unique_ptr<CtrModel> {
    return FixedArchModel::MakeOptInterM(p.data, TinyHp());
  };

  constexpr size_t kRows = 24;
  // max_batch 1 keeps every flush at batch size 1, so Submit results are
  // bitwise comparable to the per-generation references below.
  ServeOptions opts;
  opts.max_batch = 1;
  opts.flush_deadline_us = 0;
  PredictServer server(p.data, opts);
  ASSERT_TRUE(server.DeployCheckpoint(factory, ckpt_a).ok());
  std::vector<float> pa(kRows), pb(kRows);
  for (size_t k = 0; k < kRows; ++k) {
    auto r = server.PredictNow(RequestFromRow(p.data, p.splits.test[k]));
    ASSERT_TRUE(r.ok());
    pa[k] = *r;
  }
  ASSERT_TRUE(server.DeployCheckpoint(factory, ckpt_b).ok());
  for (size_t k = 0; k < kRows; ++k) {
    auto r = server.PredictNow(RequestFromRow(p.data, p.splits.test[k]));
    ASSERT_TRUE(r.ok());
    pb[k] = *r;
  }
  // The two generations must actually disagree somewhere, or the
  // membership check below would be vacuous.
  bool differs = false;
  for (size_t k = 0; k < kRows; ++k) differs |= pa[k] != pb[k];
  ASSERT_TRUE(differs);

  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};
  auto client = [&](bool use_submit) {
    for (int iter = 0; !stop.load(std::memory_order_relaxed); ++iter) {
      const size_t k = static_cast<size_t>(iter) % kRows;
      const PredictRequest req = RequestFromRow(p.data, p.splits.test[k]);
      float prob;
      if (use_submit) {
        auto fut = server.Submit(req);
        if (!fut.ok()) continue;  // backpressure is allowed, tearing isn't
        prob = fut->get();
      } else {
        auto r = server.PredictNow(req);
        if (!r.ok()) {
          errors.fetch_add(1);
          continue;
        }
        prob = *r;
      }
      if (prob != pa[k] && prob != pb[k]) errors.fetch_add(1);
    }
  };
  std::vector<std::thread> clients;
  clients.emplace_back(client, false);
  clients.emplace_back(client, false);
  clients.emplace_back(client, true);
  int swaps_done = 0;
  for (int s = 0; s < 10; ++s) {
    Status st =
        server.DeployCheckpoint(factory, s % 2 == 0 ? ckpt_b : ckpt_a);
    EXPECT_TRUE(st.ok()) << st.ToString();
    swaps_done += st.ok() ? 1 : 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  for (auto& t : clients) t.join();
  server.Drain();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(swaps_done, 10);
  EXPECT_GE(server.DeployedVersion(), 12u);
}

TEST(PredictServerTest, ConcurrentClientsSurviveQuantizedHotSwap) {
  // Hot-swap between an fp32 snapshot and its int8-quantized counterpart
  // while clients hammer both request paths: every answer must belong to
  // exactly one generation (no torn reads mixing fp32 and quantized
  // state). The TSan job runs this binary, so a racy publish shows up.
  const auto& p = SharedTinyData();
  std::shared_ptr<const CtrModel> fp32(TrainedModel(5));
  std::shared_ptr<const CtrModel> quant;
  ASSERT_TRUE(
      serve::QuantizeSnapshot(fp32, QuantMode::kInt8, &quant).ok());

  constexpr size_t kRows = 24;
  ServeOptions opts;
  opts.max_batch = 1;
  opts.flush_deadline_us = 0;
  PredictServer server(p.data, opts);

  // Per-generation references (single-threaded, before the load starts).
  ASSERT_TRUE(server.Deploy(fp32).ok());
  std::vector<float> pf(kRows), pq(kRows);
  for (size_t k = 0; k < kRows; ++k) {
    auto r = server.PredictNow(RequestFromRow(p.data, p.splits.test[k]));
    ASSERT_TRUE(r.ok());
    pf[k] = *r;
  }
  ASSERT_TRUE(server.Deploy(quant).ok());
  for (size_t k = 0; k < kRows; ++k) {
    auto r = server.PredictNow(RequestFromRow(p.data, p.splits.test[k]));
    ASSERT_TRUE(r.ok());
    pq[k] = *r;
  }
  bool differs = false;
  for (size_t k = 0; k < kRows; ++k) differs |= pf[k] != pq[k];
  ASSERT_TRUE(differs);  // otherwise membership below is vacuous

  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};
  auto client = [&](bool use_submit) {
    for (int iter = 0; !stop.load(std::memory_order_relaxed); ++iter) {
      const size_t k = static_cast<size_t>(iter) % kRows;
      const PredictRequest req = RequestFromRow(p.data, p.splits.test[k]);
      float prob;
      if (use_submit) {
        auto fut = server.Submit(req);
        if (!fut.ok()) continue;  // backpressure is allowed, tearing isn't
        prob = fut->get();
      } else {
        auto r = server.PredictNow(req);
        if (!r.ok()) {
          errors.fetch_add(1);
          continue;
        }
        prob = *r;
      }
      if (prob != pf[k] && prob != pq[k]) errors.fetch_add(1);
    }
  };
  std::vector<std::thread> clients;
  clients.emplace_back(client, false);
  clients.emplace_back(client, false);
  clients.emplace_back(client, true);
  for (int s = 0; s < 10; ++s) {
    Status st = server.Deploy(s % 2 == 0 ? fp32 : quant);
    EXPECT_TRUE(st.ok()) << st.ToString();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  for (auto& t : clients) t.join();
  server.Drain();
  EXPECT_EQ(errors.load(), 0);
}

// --- Publish freezes: a published model is immutable -----------------------

uint64_t StateHash(CtrModel* model) {
  std::vector<Tensor*> state;
  model->CollectState(&state);
  uint64_t h = testing::kFnvBasis;
  for (const Tensor* t : state) {
    h = testing::Fnv1a(t->data(), t->size() * sizeof(float), h);
  }
  return h;
}

/// Batch-1 Predict of the first `n` test rows, straight on the model.
std::vector<float> DirectBatch1(const CtrModel& model, size_t n) {
  const auto& p = SharedTinyData();
  ForwardContext ctx;
  std::vector<float> probs, out;
  for (size_t k = 0; k < n; ++k) {
    Batch b;
    b.data = &p.data;
    b.rows = &p.splits.test[k];
    b.size = 1;
    model.Predict(b, &probs, &ctx);
    out.push_back(probs[0]);
  }
  return out;
}

TEST(FrozenModelDeathTest, TrainStepOnPublishedModelDies) {
  const auto& p = SharedTinyData();
  std::shared_ptr<FixedArchModel> model = TrainedModel(1);
  PredictServer server(p.data);
  ASSERT_TRUE(server.Deploy(model).ok());
  EXPECT_TRUE(model->frozen());
  const Batch b = testing::HeadBatch(p, 16);
  EXPECT_DEATH(model->TrainStep(b), "TrainStep on frozen model");
}

TEST(FrozenModelDeathTest, TrainModelOnPublishedModelDies) {
  const auto& p = SharedTinyData();
  std::shared_ptr<FixedArchModel> model = TrainedModel(1);
  SnapshotSlot slot;
  ASSERT_TRUE(slot.Publish(model).ok());
  TrainOptions opts;
  opts.epochs = 1;
  EXPECT_DEATH(TrainModel(model.get(), p.data, p.splits, opts),
               "TrainModel on frozen model");
}

TEST(FrozenModelTest, LoadModelIntoPublishedModelIsRefused) {
  const auto& p = SharedTinyData();
  const std::string ckpt = TempPath("frozen_load.ckpt");
  ASSERT_TRUE(SaveModel(TrainedModel(12).get(), ckpt).ok());
  std::shared_ptr<FixedArchModel> model = TrainedModel(3);
  PredictServer server(p.data);
  ASSERT_TRUE(server.Deploy(model).ok());
  const uint64_t before = StateHash(model.get());
  const std::vector<float> served = DirectBatch1(*model, 8);

  const Status st = LoadModel(model.get(), ckpt);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << st.ToString();
  EXPECT_EQ(StateHash(model.get()), before);
  EXPECT_EQ(DirectBatch1(*model, 8), served);
}

TEST(FrozenModelTest, PublishPacksOnceAndKeepsPredictBits) {
  const auto& p = SharedTinyData();
  std::shared_ptr<FixedArchModel> model = TrainedModel(5);
  EXPECT_FALSE(model->frozen());
  EXPECT_EQ(model->mlp_packs(), nullptr);
  const std::vector<float> unfrozen = DirectBatch1(*model, 16);

  PredictServer server(p.data);
  ASSERT_TRUE(server.Deploy(model).ok());
  ASSERT_NE(model->mlp_packs(), nullptr);
  ASSERT_EQ(model->mlp_packs()->size(), model->mlp().linears().size());
  std::vector<const float*> panels;
  for (const PackedNT& pack : *model->mlp_packs()) {
    panels.push_back(pack.data());
  }
  // Re-deploying the same model (and swapping back to it) reuses its
  // packs: freezing is once per model, not once per publish.
  ASSERT_TRUE(server.Deploy(model).ok());
  ASSERT_TRUE(server.Deploy(TrainedModel(1)).ok());
  ASSERT_TRUE(server.Deploy(model).ok());
  EXPECT_EQ(server.DeployedVersion(), 4u);
  for (size_t li = 0; li < panels.size(); ++li) {
    EXPECT_EQ((*model->mlp_packs())[li].data(), panels[li]) << "layer " << li;
  }

  EXPECT_EQ(DirectBatch1(*model, 16), unfrozen);
  for (size_t k = 0; k < 16; ++k) {
    auto r = server.PredictNow(RequestFromRow(p.data, p.splits.test[k]));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, unfrozen[k]) << "row " << k;
  }
}

// Freeze racing with requests: one thread re-deploys a model that is not
// yet frozen (its first Publish packs, the rest are no-ops) while another
// hammers PredictNow and a third predicts on that model directly. Every
// answer must be bitwise the unfrozen one; the TSan job runs this binary,
// so an unsynchronized pack publication shows up there.
TEST(FrozenModelTest, PredictWhileRedeployingSameModel) {
  const auto& p = SharedTinyData();
  constexpr size_t kRows = 12;
  std::shared_ptr<FixedArchModel> model = TrainedModel(4);
  const std::vector<float> expected = DirectBatch1(*model, kRows);
  PredictServer server(p.data);
  // An identical generation is live first, so PredictNow answers the
  // same bits whichever of the two it pins.
  const std::string ckpt = TempPath("frozen_race.ckpt");
  ASSERT_TRUE(SaveModel(model.get(), ckpt).ok());
  ASSERT_TRUE(server
                  .DeployCheckpoint(
                      [&]() -> std::unique_ptr<CtrModel> {
                        return FixedArchModel::MakeOptInterM(p.data,
                                                             TinyHp());
                      },
                      ckpt)
                  .ok());

  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};
  std::thread via_server([&] {
    for (size_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      const size_t k = i % kRows;
      auto r = server.PredictNow(RequestFromRow(p.data, p.splits.test[k]));
      if (!r.ok() || *r != expected[k]) errors.fetch_add(1);
    }
  });
  std::thread direct([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      if (DirectBatch1(*model, kRows) != expected) errors.fetch_add(1);
    }
  });
  for (int s = 0; s < 20; ++s) {
    EXPECT_TRUE(server.Deploy(model).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true);
  via_server.join();
  direct.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_TRUE(model->frozen());
  EXPECT_EQ(DirectBatch1(*model, kRows), expected);
}

TEST(ServeMetricsTest, LatencyHistogramFeedsQuantiles) {
  const auto& p = SharedTinyData();
  PredictServer server(p.data);
  ASSERT_TRUE(server.Deploy(TrainedModel(1)).ok());
  for (size_t k = 0; k < 8; ++k) {
    ASSERT_TRUE(
        server.PredictNow(RequestFromRow(p.data, p.splits.train[k])).ok());
  }
  obs::Histogram* h = obs::MetricsRegistry::Global().GetHistogram(
      "serve.latency_us", {10, 20, 50, 100, 200, 500, 1000, 2000, 5000,
                           10000, 20000, 50000, 100000});
  EXPECT_GE(h->count(), 8u);
  const double p50 = h->Quantile(0.5);
  const double p99 = h->Quantile(0.99);
  EXPECT_GT(p50, 0.0);
  EXPECT_GE(p99, p50);
}

/// Value of the unlabeled Prometheus sample `name` ("name <value>" at the
/// start of a line) in `text`, or -1 when absent.
double SampleValue(const std::string& text, const std::string& name) {
  const std::string key = "\n" + name + " ";
  const size_t at = text.find(key);
  if (at == std::string::npos) return -1.0;
  return std::strtod(text.c_str() + at + key.size(), nullptr);
}

// The live exporter of a serving process: several clients Submit while
// /metrics and /healthz are fetched over the loopback socket. The
// exposition must carry the request counter and the cumulative latency
// histogram, /healthz must answer ok, and no request may be rejected.
TEST(ServeMetricsTest, LiveServerExportsMetricsWhileClientsSubmit) {
  const auto& p = SharedTinyData();
  ServeOptions opts;
  opts.metrics_port = 0;
  PredictServer server(p.data, opts);
  const int port = server.metrics_port();
  ASSERT_GT(port, 0);
  ASSERT_TRUE(server.Deploy(TrainedModel(1)).ok());
  obs::Counter* rejected =
      obs::MetricsRegistry::Global().GetCounter("serve.rejected");
  const uint64_t rejected_before = rejected->Value();

  std::atomic<bool> stop{false};
  std::atomic<int> failed{0};
  auto client = [&](size_t id) {
    for (size_t i = id; !stop.load(std::memory_order_relaxed); ++i) {
      const size_t row = p.splits.test[i % p.splits.test.size()];
      auto fut = server.Submit(RequestFromRow(p.data, row));
      if (!fut.ok()) {
        failed.fetch_add(1);
        continue;
      }
      fut->get();
    }
  };
  std::vector<std::thread> clients;
  for (size_t c = 0; c < 4; ++c) clients.emplace_back(client, c);
  // Scrape until the first answered requests show up in the exposition.
  std::string metrics;
  for (int attempt = 0; attempt < 500; ++attempt) {
    metrics = testing::HttpGet(port, "/metrics");
    if (SampleValue(metrics, "serve_requests") > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const std::string health = testing::HttpGet(port, "/healthz");
  stop.store(true);
  for (auto& t : clients) t.join();
  server.Drain();

  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_GT(SampleValue(metrics, "serve_requests"), 0.0) << metrics;
  EXPECT_NE(metrics.find("\nserve_latency_us_bucket{le=\"+Inf\"} "),
            std::string::npos)
      << metrics;
  EXPECT_GT(SampleValue(metrics, "serve_latency_us_count"), 0.0) << metrics;
  EXPECT_NE(health.find("200 OK"), std::string::npos) << health;
  EXPECT_NE(health.find("ok"), std::string::npos) << health;
  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(rejected->Value(), rejected_before);
}

}  // namespace
}  // namespace optinter

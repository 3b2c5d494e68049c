// Shared test fixtures: a small planted synthetic dataset, encoded with
// cross features, built once per test binary; per-process temp paths; a
// guard for the global pool size; and a serial reference for
// EvaluateModel.

#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "data/batch.h"
#include "data/encoder.h"
#include "metrics/metrics.h"
#include "models/forward_context.h"
#include "models/interaction.h"
#include "models/model.h"
#include "synth/profiles.h"
#include "train/trainer.h"

namespace optinter {
namespace testing {

struct PreparedData {
  SynthConfig cfg;
  EncodedDataset data;
  Splits splits;
};

/// The tiny profile encoded with min counts 2 and cross-product
/// features, fitted on `train`, plus the given field triples.
inline EncodedDataset EncodeTiny(
    const std::vector<size_t>& train,
    std::vector<std::array<size_t, 3>> triples = {}) {
  EncoderOptions opts;
  opts.cat_min_count = 2;
  opts.cross_min_count = 2;
  opts.triples = std::move(triples);
  auto encoded = EncodeDataset(GenerateSynthetic(TinyConfig()), train, opts);
  CHECK(encoded.ok()) << encoded.status().ToString();
  return std::move(encoded).value();
}

/// Builds (once) a ~6k-row tiny dataset with planted structure, encoded
/// with cross-product features and 70/10/20 splits.
inline const PreparedData& SharedTinyData() {
  static const PreparedData* prepared = [] {
    auto* p = new PreparedData();
    p->cfg = TinyConfig();
    Rng rng(p->cfg.seed);
    p->splits = MakeSplits(p->cfg.num_rows, 0.7, 0.1, &rng);
    p->data = EncodeTiny(p->splits.train);
    return p;
  }();
  return *prepared;
}

/// A batch over the first `n` training rows.
inline Batch HeadBatch(const PreparedData& p, size_t n) {
  Batch b;
  b.data = &p.data;
  b.rows = p.splits.train.data();
  b.size = std::min(n, p.splits.train.size());
  return b;
}

/// SharedTinyData() re-fitted with two field triples, {0, 1, 2} and
/// {1, 2, 3}: the memorized-triple golden's dataset.
inline EncodedDataset TinyDataWithTriples() {
  return EncodeTiny(SharedTinyData().splits.train, {{0, 1, 2}, {1, 2, 3}});
}

/// Pair q memorizes, factorizes or stays naïve by q mod 3.
inline Architecture MixedArchitecture(size_t num_pairs) {
  Architecture arch(num_pairs);
  for (size_t q = 0; q < num_pairs; ++q) {
    arch[q] = q % 3 == 0   ? InterMethod::kMemorize
              : q % 3 == 1 ? InterMethod::kFactorize
                           : InterMethod::kNaive;
  }
  return arch;
}

/// A file or directory path `name` under the test temp root, unique to
/// this process and removed when it exits. ctest runs each test as its own
/// process, and two build trees may run the same test at once: a fixed
/// name would let them overwrite or remove each other's files.
inline std::string TempPath(const std::string& name) {
  static struct Removal {
    pid_t owner = ::getpid();  // not a forked death-test child
    std::vector<std::string> paths;
    ~Removal() {
      if (::getpid() != owner) return;
      for (const std::string& path : paths) {
        std::error_code ec;
        std::filesystem::remove_all(path, ec);
      }
    }
  } removal;
  std::string path = ::testing::TempDir() + "/" +
                     std::to_string(::getpid()) + "_" + name;
  removal.paths.push_back(path);
  return path;
}

/// Restores the global pool size when a test returns (tests resize it to
/// exercise specific thread counts).
struct PoolGuard {
  size_t saved = ThreadPool::Global().num_threads();
  ~PoolGuard() { ThreadPool::SetGlobalThreads(saved); }
};

/// EvaluateModel's reference: one ForwardContext predicts `rows` batch by
/// batch over the same batch grid, in order, then Auc/LogLoss.
inline EvalMetrics SerialEvaluate(const CtrModel& model,
                                  const EncodedDataset& data,
                                  const std::vector<size_t>& rows,
                                  size_t batch_size) {
  std::vector<float> probs, labels, batch_probs;
  ForwardContext ctx;
  for (size_t start = 0; start < rows.size(); start += batch_size) {
    Batch b;
    b.data = &data;
    b.rows = rows.data() + start;
    b.size = std::min(batch_size, rows.size() - start);
    model.Predict(b, &batch_probs, &ctx);
    probs.insert(probs.end(), batch_probs.begin(), batch_probs.end());
  }
  for (const size_t r : rows) labels.push_back(data.label(r));
  return {Auc(probs, labels), LogLoss(probs, labels)};
}

}  // namespace testing
}  // namespace optinter

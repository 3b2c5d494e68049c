// The serving stage's load generators, shared by the pipeline (end-to-end
// metrics) and the probes (per-rate per-layer metrics).

#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "serve/request.h"
#include "serve/server.h"

namespace perfbench {

/// Latency limit on the open loop's p99, from when each request was due.
inline constexpr double kSubmitSloUs = 50000.0;
/// Fixed open-loop rate of serve.submit_p50_us.r10000 and
/// serve.submit_p99_us.r10000.
inline constexpr double kReferenceRate = 10000.0;

/// One open-loop run at a fixed rate.
struct OpenLoopResult {
  double rate = 0.0;
  Samples latency_us;  // completion − due, accepted requests only
  Samples late_us;     // send − due (generator lateness)
  uint64_t sent = 0;
  uint64_t rejected = 0;  // refused by backpressure
  uint64_t wrong = 0;     // value matches neither live generation
  uint64_t flushes = 0;
  /// Windowed p99 (Samples::WindowedPercentile) over every request sent;
  /// refused requests count as misses.
  double p99_with_misses_us = 0.0;
  /// Median latency of the last window: a growing backlog raises it.
  double last_window_p50_us = 0.0;
  bool meets_slo = false;
};

/// A PredictServer over a trained model, with two checkpointed fp32
/// generations (A = the trained model, B = A plus a few more steps), the
/// int8 view of A, request rows, and each generation's direct-Predict
/// answer for every request row.
class ServeHarness {
 public:
  ServeHarness(const Args& args, PipelineState* st, Ledger* ledger);

  bool ok() const { return ok_; }

  /// Closed loop: one client calling PredictNow for `seconds`; every
  /// answer must equal `expected` bit for bit.
  Samples ClosedLoop(const std::shared_ptr<const optinter::CtrModel>& model,
                     const std::vector<float>& expected, double seconds,
                     Ledger* ledger);

  /// Open loop at `rate` for `seconds` with fp32 generation A live; the
  /// calling thread hot-swaps A ↔ B every kSwapIntervalMs meanwhile.
  OpenLoopResult OpenLoop(double rate, double seconds, Ledger* ledger);

  const std::shared_ptr<const optinter::CtrModel>& gen_a() const {
    return gen_a_;
  }
  const std::shared_ptr<const optinter::CtrModel>& int8() const {
    return int8_;
  }
  const std::vector<float>& expected_a() const { return exp_a_; }
  const std::vector<float>& expected_int8() const { return exp_int8_; }

  Samples swap_ms;
  double save_ms = 0.0;
  double load_ms = 0.0;
  double quantize_ms = 0.0;

 private:
  static constexpr int kSwapIntervalMs = 200;

  bool ok_ = false;
  std::string path_a_;
  std::string path_b_;
  std::function<std::unique_ptr<optinter::CtrModel>()> factory_;
  std::shared_ptr<const optinter::CtrModel> gen_a_;
  std::shared_ptr<const optinter::CtrModel> gen_b_;
  std::shared_ptr<const optinter::CtrModel> int8_;
  std::vector<optinter::serve::PredictRequest> requests_;
  std::vector<float> exp_a_, exp_b_, exp_int8_;
  std::unique_ptr<optinter::serve::PredictServer> server_;
  bool live_is_a_ = true;
};

/// Direct one-row const Predict of `model` on every request row.
std::vector<float> DirectPredictions(const optinter::CtrModel& model,
                                     const PipelineState& st);

}  // namespace perfbench

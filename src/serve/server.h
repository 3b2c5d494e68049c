// Low-latency prediction server: adaptive micro-batching over the const
// CtrModel::Predict, with lock-free model hot-swap.
//
// Two request paths share one SnapshotSlot:
//
//  * Submit(request) enqueues into the micro-batcher. A dedicated
//    flusher thread coalesces concurrent requests into one Predict call
//    (amortizing the per-call fixed costs and letting the GEMMs see real
//    batch sizes) and scatters the probabilities back to per-request
//    futures. A flush triggers when `max_batch` requests are pending OR
//    when the OLDEST pending request has waited `flush_deadline_us` —
//    so an idle server stays at one-request latency while a loaded one
//    converges to full batches (the adaptive policy; DESIGN.md §8).
//
//  * PredictNow(request) scores synchronously on the calling thread as a
//    batch of one (gather and interactions land straight in the MLP
//    input row), bypassing the queue entirely. This is the
//    lowest-latency path; use it when the caller cannot tolerate
//    coalescing delay.
//
// Both paths pin the live snapshot for the duration of the request, so a
// concurrent hot-swap (Deploy / SwapFromCheckpoint on any thread) never
// tears a prediction across two weight generations.
//
// Every deploy path publishes through SnapshotSlot::Publish, which
// freezes the model first: a FixedArchModel packs its MLP weights then,
// once per model, and both request paths run its MLP over those packs
// with the same bits as the unfrozen model. The pack cost lands in the
// deploy (serve.swap_ms), not in a request.
//
// Per-request state lives in pooled arenas (RequestArena + ForwardContext
// + probability scratch) that keep capacity across requests: the steady
// state allocates nothing.
//
// Latency/throughput observability (src/obs):
//   serve.requests / serve.rejected (counters)
//   serve.flushes (counter), serve.batch_size (histogram)
//   serve.latency_us (histogram; Submit measures enqueue→future-set,
//                     PredictNow measures call duration)
//   serve.swaps (counter, incremented by SnapshotSlot::Publish)

#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "models/forward_context.h"
#include "obs/http_exporter.h"
#include "serve/request.h"
#include "serve/snapshot.h"

namespace optinter {
namespace serve {

/// Tuning knobs for the micro-batcher.
struct ServeOptions {
  /// Flush as soon as this many requests are pending.
  size_t max_batch = 64;
  /// Flush once the oldest pending request has waited this long, even if
  /// the batch is not full. 0 = flush immediately (degenerates to batch-1
  /// unless requests race in faster than the flusher drains them).
  uint64_t flush_deadline_us = 200;
  /// Reject Submit when this many requests are already pending
  /// (backpressure instead of unbounded queue growth). 0 = unbounded.
  size_t max_pending = 4096;
  /// Live scrape endpoint (obs/http_exporter.h): -1 = no exporter
  /// (default), 0 = bind an ephemeral port (read it back from
  /// PredictServer::metrics_port()), >0 = bind that port. Serves /metrics
  /// (Prometheus text), /healthz, and /varz (RunReport JSON snapshot) for
  /// the server's lifetime.
  int metrics_port = -1;
  /// Interface the metrics exporter binds. Default loopback; set
  /// "0.0.0.0" to let an external Prometheus scrape a serving host —
  /// an explicit opt-in, since /varz exposes run internals.
  std::string metrics_bind_addr = "127.0.0.1";
};

/// A deployed model serving requests. Thread-safe.
class PredictServer {
 public:
  /// `reference` defines the feature space (schema, vocab sizes); every
  /// deployed model must have been constructed against a dataset encoded
  /// with the same FittedEncoder. Not owned; must outlive the server.
  explicit PredictServer(const EncodedDataset& reference,
                         ServeOptions options = {});

  /// Drains pending requests and joins the flusher.
  ~PredictServer();

  PredictServer(const PredictServer&) = delete;
  PredictServer& operator=(const PredictServer&) = delete;

  /// Freezes and publishes `model` as the live snapshot (first deploy or
  /// hot-swap); the model may not be trained or loaded into afterwards.
  /// Re-deploying a model already published is cheap (no repack). Rejects
  /// a null model.
  Status Deploy(std::shared_ptr<const CtrModel> model);

  /// Hot-swap: build a fresh model via `factory`, restore the checkpoint
  /// into it, publish. In-flight and concurrent requests keep the old
  /// snapshot until they finish; on failure the old model stays live.
  Status DeployCheckpoint(
      const std::function<std::unique_ptr<CtrModel>()>& factory,
      const std::string& checkpoint_path);

  /// Generation id of the live model (0 = nothing deployed).
  uint64_t DeployedVersion() const { return slot_.version(); }

  /// Enqueues a request for micro-batched scoring. Validation failures
  /// and backpressure are reported synchronously; the future is fulfilled
  /// by the flusher thread.
  Result<std::future<float>> Submit(PredictRequest request);

  /// Synchronous batch-1 scoring on the calling thread. Concurrent calls
  /// are safe.
  Result<float> PredictNow(const PredictRequest& request);

  /// Blocks until every request submitted before the call has been
  /// answered. Test/shutdown helper.
  void Drain();

  size_t pending() const;

  /// Bound /metrics port when ServeOptions::metrics_port >= 0 and the
  /// exporter started; -1 otherwise.
  int metrics_port() const;

 private:
  struct PendingRequest {
    PredictRequest request;
    std::promise<float> promise;
    std::chrono::steady_clock::time_point enqueued;
  };

  /// Pooled per-request scratch for the batch-1 path.
  struct Batch1Slot {
    explicit Batch1Slot(const EncodedDataset& reference)
        : arena(reference) {}
    RequestArena arena;
    ForwardContext ctx;
    std::vector<float> probs;
  };

  void FlusherLoop();
  /// Scores `batch` (moved-out pending requests) and fulfills promises.
  void RunFlush(std::vector<PendingRequest>* batch);

  const EncodedDataset& reference_;
  const ServeOptions options_;
  SnapshotSlot slot_;

  mutable std::mutex mutex_;
  std::condition_variable wake_flusher_;
  std::condition_variable drained_;
  std::deque<PendingRequest> queue_;
  size_t in_flight_ = 0;  // requests moved out of queue_, not yet answered
  bool stopping_ = false;

  // Flusher-owned scratch (only the flusher thread touches these).
  RequestArena flush_arena_;
  ForwardContext flush_ctx_;
  std::vector<float> flush_probs_;
  std::vector<PendingRequest> flush_batch_;

  std::mutex batch1_mutex_;
  std::vector<std::unique_ptr<Batch1Slot>> batch1_pool_;

  std::unique_ptr<obs::HttpExporter> metrics_exporter_;
  std::thread flusher_;
};

}  // namespace serve
}  // namespace optinter

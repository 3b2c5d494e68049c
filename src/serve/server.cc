#include "serve/server.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace optinter {
namespace serve {

namespace {

obs::Counter* RequestCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("serve.requests");
  return c;
}

obs::Counter* RejectedCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("serve.rejected");
  return c;
}

obs::Counter* FlushCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("serve.flushes");
  return c;
}

obs::Histogram* LatencyHistogram() {
  // Microsecond buckets from sub-10us (batch-1 on warm caches) to
  // 100ms (deep queues / cold swaps); the overflow bucket catches worse.
  static obs::Histogram* h = obs::MetricsRegistry::Global().GetHistogram(
      "serve.latency_us",
      {10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000, 20000, 50000,
       100000});
  return h;
}

obs::Histogram* BatchSizeHistogram() {
  static obs::Histogram* h = obs::MetricsRegistry::Global().GetHistogram(
      "serve.batch_size", {1, 2, 4, 8, 16, 32, 64, 128, 256});
  return h;
}

double MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

PredictServer::PredictServer(const EncodedDataset& reference,
                             ServeOptions options)
    : reference_(reference),
      options_(options),
      flush_arena_(reference) {
  CHECK_GT(options_.max_batch, 0u);
  if (options_.metrics_port >= 0) {
    obs::HttpExporterOptions exporter_options;
    exporter_options.host = options_.metrics_bind_addr;
    exporter_options.port = options_.metrics_port;
    metrics_exporter_ =
        std::make_unique<obs::HttpExporter>(std::move(exporter_options));
    std::string error;
    if (!metrics_exporter_->Start(&error)) {
      // Telemetry must never take down serving: log and carry on without
      // the scrape endpoint.
      LOG_WARNING() << "metrics exporter disabled: " << error;
      metrics_exporter_.reset();
    }
  }
  flusher_ = std::thread([this] { FlusherLoop(); });
}

PredictServer::~PredictServer() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_flusher_.notify_all();
  flusher_.join();
  // Fail whatever the flusher did not get to (Drain() callers have
  // already seen their futures resolve; this only runs on teardown with
  // requests still queued).
  for (PendingRequest& p : queue_) {
    p.promise.set_value(std::numeric_limits<float>::quiet_NaN());
  }
  if (metrics_exporter_ != nullptr) metrics_exporter_->Stop();
}

int PredictServer::metrics_port() const {
  return metrics_exporter_ != nullptr ? metrics_exporter_->port() : -1;
}

Status PredictServer::Deploy(std::shared_ptr<const CtrModel> model) {
  return slot_.Publish(std::move(model));
}

Status PredictServer::DeployCheckpoint(
    const std::function<std::unique_ptr<CtrModel>()>& factory,
    const std::string& checkpoint_path) {
  return SwapFromCheckpoint(&slot_, factory, checkpoint_path);
}

Result<std::future<float>> PredictServer::Submit(PredictRequest request) {
  if (slot_.Acquire() == nullptr) {
    RejectedCounter()->Increment();
    return Status::FailedPrecondition("no model deployed");
  }
  // Validate outside the lock against a throwaway arena? No — validation
  // needs only schema/vocab data, which RequestArena copies; use a cheap
  // dedicated validator: appending to a 1-row scratch arena would also
  // work but would serialize submitters. The arena validation runs again
  // at flush time via Append, so here we pre-check with the same logic on
  // a thread-local scratch arena to fail fast without holding mutex_.
  thread_local std::unique_ptr<RequestArena> scratch;
  if (scratch == nullptr) {
    scratch = std::make_unique<RequestArena>(reference_);
  }
  scratch->Clear();
  Status st = scratch->Append(request);
  if (!st.ok()) {
    RejectedCounter()->Increment();
    return st;
  }
  std::future<float> future;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (stopping_) {
      RejectedCounter()->Increment();
      return Status::FailedPrecondition("server is shutting down");
    }
    if (options_.max_pending > 0 &&
        queue_.size() + in_flight_ >= options_.max_pending) {
      RejectedCounter()->Increment();
      return Status::FailedPrecondition(StrFormat(
          "serving queue full (%zu pending); retry or raise max_pending",
          queue_.size() + in_flight_));
    }
    queue_.emplace_back();
    PendingRequest& p = queue_.back();
    p.request = std::move(request);
    p.enqueued = std::chrono::steady_clock::now();
    future = p.promise.get_future();
  }
  wake_flusher_.notify_one();
  return future;
}

Result<float> PredictServer::PredictNow(const PredictRequest& request) {
  const auto start = std::chrono::steady_clock::now();
  std::shared_ptr<const ModelSnapshot> snap = slot_.Acquire();
  if (snap == nullptr) {
    RejectedCounter()->Increment();
    return Status::FailedPrecondition("no model deployed");
  }
  // Pinned slot: pop a pooled scratch bundle (or grow the pool on first
  // use / burst peaks); steady state is pop + push of a pointer.
  std::unique_ptr<Batch1Slot> slot;
  {
    std::unique_lock<std::mutex> lock(batch1_mutex_);
    if (!batch1_pool_.empty()) {
      slot = std::move(batch1_pool_.back());
      batch1_pool_.pop_back();
    }
  }
  if (slot == nullptr) {
    slot = std::make_unique<Batch1Slot>(reference_);
  }
  slot->arena.Clear();
  Status st = slot->arena.Append(request);
  if (!st.ok()) {
    RejectedCounter()->Increment();
    std::unique_lock<std::mutex> lock(batch1_mutex_);
    batch1_pool_.push_back(std::move(slot));
    return st;
  }
  {
    OPTINTER_TRACE_SPAN("serve_predict_now");
    const Batch batch = slot->arena.MakeBatch();
    snap->model->Predict(batch, &slot->probs, &slot->ctx);
  }
  const float prob = slot->probs[0];
  {
    std::unique_lock<std::mutex> lock(batch1_mutex_);
    batch1_pool_.push_back(std::move(slot));
  }
  RequestCounter()->Increment();
  BatchSizeHistogram()->Observe(1.0);
  LatencyHistogram()->Observe(MicrosSince(start));
  return prob;
}

void PredictServer::Drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  drained_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

size_t PredictServer::pending() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return queue_.size() + in_flight_;
}

void PredictServer::FlusherLoop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_flusher_.wait(lock,
                         [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      // Adaptive coalescing: a full batch flushes immediately; otherwise
      // wait until the OLDEST request's deadline so its latency is
      // bounded by flush_deadline_us regardless of arrival pattern.
      const auto deadline =
          queue_.front().enqueued +
          std::chrono::microseconds(options_.flush_deadline_us);
      while (!stopping_ && queue_.size() < options_.max_batch &&
             std::chrono::steady_clock::now() < deadline) {
        wake_flusher_.wait_until(lock, deadline);
      }
      const size_t take = std::min(queue_.size(), options_.max_batch);
      flush_batch_.clear();
      for (size_t i = 0; i < take; ++i) {
        flush_batch_.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      in_flight_ = flush_batch_.size();
    }
    RunFlush(&flush_batch_);
    {
      std::unique_lock<std::mutex> lock(mutex_);
      in_flight_ = 0;
    }
    drained_.notify_all();
  }
}

void PredictServer::RunFlush(std::vector<PendingRequest>* batch) {
  OPTINTER_TRACE_SPAN("serve_flush");
  std::shared_ptr<const ModelSnapshot> snap = slot_.Acquire();
  flush_arena_.Clear();
  // Requests were validated at Submit; a failure here means the deployed
  // feature space changed between Submit and flush, which Deploy forbids
  // (same reference dataset for the server's lifetime) — so Append can
  // only fail on programmer error and the CHECK documents that.
  for (PendingRequest& p : *batch) {
    CHECK_OK(flush_arena_.Append(p.request));
  }
  if (snap == nullptr) {
    for (PendingRequest& p : *batch) {
      p.promise.set_value(std::numeric_limits<float>::quiet_NaN());
    }
    return;
  }
  const Batch b = flush_arena_.MakeBatch();
  snap->model->Predict(b, &flush_probs_, &flush_ctx_);
  const auto now = std::chrono::steady_clock::now();
  for (size_t i = 0; i < batch->size(); ++i) {
    (*batch)[i].promise.set_value(flush_probs_[i]);
    LatencyHistogram()->Observe(
        std::chrono::duration<double, std::micro>(now - (*batch)[i].enqueued)
            .count());
  }
  RequestCounter()->Add(batch->size());
  FlushCounter()->Increment();
  BatchSizeHistogram()->Observe(static_cast<double>(batch->size()));
}

}  // namespace serve
}  // namespace optinter

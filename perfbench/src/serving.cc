// Serving stage: checkpoint two generations, quantize, then drive the
// server with a closed-loop batch-1 client and an open-loop Submit load
// at fixed rates while hot-swapping generations.

#include "serving.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <thread>

#include "io/serialize.h"
#include "obs/registry.h"
#include "serve/snapshot.h"

namespace perfbench {

using optinter::obs::JsonValue;

namespace {

bool SameBits(float a, float b) {
  return std::memcmp(&a, &b, sizeof(float)) == 0;
}

uint64_t CounterValue(const char* name) {
  return optinter::obs::MetricsRegistry::Global().GetCounter(name)->Value();
}

double Ms(Clock::time_point t0) { return SecondsSince(t0) * 1e3; }

/// One latency distribution measured in several slices of a run.
struct SliceStats {
  Samples pooled;
  std::vector<double> p50s;
  std::vector<double> p99s;

  void Add(const Samples& slice) {
    pooled.Append(slice);
    p50s.push_back(slice.Median());
    p99s.push_back(slice.Percentile(99.0));
  }
  /// Median over the slices of each slice's exact percentile.
  double P50() const { return MedianOf(p50s); }
  double P99() const { return MedianOf(p99s); }
  JsonValue Report() const {
    JsonValue r = pooled.Summary();
    JsonValue a = JsonValue::MakeArray();
    JsonValue b = JsonValue::MakeArray();
    for (double v : p50s) a.Push(JsonValue::Double(v));
    for (double v : p99s) b.Push(JsonValue::Double(v));
    r.Set("slice_p50", std::move(a));
    r.Set("slice_p99", std::move(b));
    return r;
  }
};

}  // namespace

std::vector<float> DirectPredictions(const optinter::CtrModel& model,
                                     const PipelineState& st) {
  std::vector<float> out(st.request_rows.size());
  optinter::ForwardContext ctx;
  std::vector<float> probs;
  for (size_t i = 0; i < st.request_rows.size(); ++i) {
    optinter::Batch b;
    b.data = &st.request_data;
    b.rows = &st.request_rows[i];
    b.size = 1;
    model.Predict(b, &probs, &ctx);
    out[i] = probs[0];
  }
  return out;
}

ServeHarness::ServeHarness(const Args& args, PipelineState* st,
                           Ledger* ledger)
    : path_a_(args.work_dir + "/gen_a.ckpt"),
      path_b_(args.work_dir + "/gen_b.ckpt") {
  const optinter::EncodedDataset* ref = st->model_data;
  const optinter::Architecture arch = st->arch;
  const optinter::HyperParams hp = st->hp;
  factory_ = [ref, arch, hp]() -> std::unique_ptr<optinter::CtrModel> {
    return std::make_unique<optinter::FixedArchModel>(*ref, arch, hp,
                                                      "served");
  };

  // Generation A is the trained model; B is A after a few more steps on
  // the in-RAM rows, so the two generations answer differently.
  auto t0 = Clock::now();
  optinter::Status s = optinter::SaveModel(st->model.get(), path_a_);
  save_ms = Ms(t0);
  ledger->Check(s.ok(), "save generation A: " + s.ToString());
  optinter::Batcher batcher(&st->data, [&] {
    std::vector<size_t> rows(std::min<size_t>(st->data.num_rows, 8192));
    for (size_t i = 0; i < rows.size(); ++i) rows[i] = i;
    return rows;
  }(), st->hp.batch_size, st->hp.seed + 17);
  batcher.StartEpoch();
  for (int step = 0; step < 8; ++step) {
    optinter::Batch b = batcher.Next();
    if (b.size == 0) break;
    st->model->TrainStep(b);
  }
  s = optinter::SaveModel(st->model.get(), path_b_);
  ledger->Check(s.ok(), "save generation B: " + s.ToString());
  if (ledger->failed() > 0) return;

  auto load = [&](const std::string& path) {
    std::unique_ptr<optinter::CtrModel> m = factory_();
    const auto t = Clock::now();
    optinter::Status ls = optinter::LoadModel(m.get(), path);
    load_ms = Ms(t);
    ledger->Check(ls.ok(), "load " + path + ": " + ls.ToString());
    return std::shared_ptr<const optinter::CtrModel>(std::move(m));
  };
  gen_a_ = load(path_a_);
  gen_b_ = load(path_b_);
  t0 = Clock::now();
  s = optinter::serve::QuantizeSnapshot(gen_a_, optinter::QuantMode::kInt8,
                                        &int8_);
  quantize_ms = Ms(t0);
  ledger->Check(s.ok(), "quantize: " + s.ToString());
  if (ledger->failed() > 0) return;

  for (size_t row : st->request_rows) {
    requests_.push_back(
        optinter::serve::RequestFromRow(st->request_data, row));
  }
  exp_a_ = DirectPredictions(*gen_a_, *st);
  exp_b_ = DirectPredictions(*gen_b_, *st);
  exp_int8_ = DirectPredictions(*int8_, *st);
  size_t differing = 0;
  for (size_t i = 0; i < exp_a_.size(); ++i) {
    if (!SameBits(exp_a_[i], exp_b_[i])) ++differing;
  }
  ledger->Check(differing > 0, "generations A and B answer identically");

  // The server's reference only defines the feature space; the request
  // rows' dataset carries it with cross features marked present.
  server_ = std::make_unique<optinter::serve::PredictServer>(
      st->request_data, optinter::serve::ServeOptions{});
  ok_ = true;
}

Samples ServeHarness::ClosedLoop(
    const std::shared_ptr<const optinter::CtrModel>& model,
    const std::vector<float>& expected, double seconds, Ledger* ledger) {
  Samples lat;
  optinter::Status s = server_->Deploy(model);
  ledger->Check(s.ok(), "deploy: " + s.ToString());
  if (!s.ok()) return lat;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  const auto start = Clock::now();
  for (size_t i = 0; SecondsSince(start) < seconds; ++i) {
    const size_t k = i % requests_.size();
    const auto t0 = Clock::now();
    optinter::Result<float> r = server_->PredictNow(requests_[k]);
    const auto t1 = Clock::now();
    lat.Add(std::chrono::duration<double, std::micro>(t1 - t0).count());
    ++attempted;
    if (!r.ok() || !SameBits(*r, expected[k])) ++failed;
  }
  ledger->Count(attempted, failed, "PredictNow answers (bitwise)");
  return lat;
}

OpenLoopResult ServeHarness::OpenLoop(double rate, double seconds,
                                      Ledger* ledger) {
  OpenLoopResult res;
  res.rate = rate;
  // Generation A live at the start of every probe.
  optinter::Status s = server_->DeployCheckpoint(factory_, path_a_);
  live_is_a_ = true;
  ledger->Check(s.ok(), "deploy generation A: " + s.ToString());
  if (!s.ok()) return res;

  struct Slot {
    Clock::time_point due;
    Clock::time_point sent;
    std::future<float> fut;
    bool accepted = false;
    float value = 0.0f;
    double done_us = 0.0;  // completion − due; inf = refused
  };
  const size_t n = std::max<size_t>(1, static_cast<size_t>(rate * seconds));
  std::vector<Slot> slots(n);
  std::atomic<size_t> published{0};
  const uint64_t flushes0 = CounterValue("serve.flushes");
  const auto start = Clock::now() + std::chrono::milliseconds(1);
  const double period_ns = 1e9 / rate;
  for (size_t i = 0; i < n; ++i) {
    slots[i].due = start + std::chrono::nanoseconds(static_cast<int64_t>(
                               static_cast<double>(i) * period_ns));
  }

  // One client thread sends each request when it is due and, in between,
  // polls the oldest unanswered one. It spins rather than sleeps: waking
  // an idle vCPU of a shared VM can take longer than the request period.
  // With the server's flusher and the hot-swaps, at most three threads are
  // busy on a 4-vCPU host; a spinning sender plus a spinning collector
  // left the hot-swaps contending with them.
  std::thread client([&] {
    size_t sent = 0;
    size_t answered = 0;
    while (answered < n) {
      if (sent < n && Clock::now() >= slots[sent].due) {
        // A late send is charged to the request (timed from due) and
        // reported as generator lateness.
        Slot& slot = slots[sent];
        slot.sent = Clock::now();
        auto r = server_->Submit(requests_[sent % requests_.size()]);
        if (r.ok()) {
          slot.fut = std::move(*r);
          slot.accepted = true;
        }
        published.store(++sent, std::memory_order_release);
      }
      if (answered < sent) {
        Slot& slot = slots[answered];
        if (!slot.accepted) {
          slot.done_us = INFINITY;
          ++answered;
          continue;
        }
        if (slot.fut.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
          const auto done = Clock::now();
          slot.value = slot.fut.get();
          slot.done_us =
              std::chrono::duration<double, std::micro>(done - slot.due)
                  .count();
          ++answered;
          continue;
        }
      }
      std::this_thread::yield();
    }
  });

  // This thread hot-swaps generations until every request is sent.
  uint64_t swaps = 0;
  uint64_t swap_failures = 0;
  auto next_swap = start + std::chrono::milliseconds(kSwapIntervalMs);
  while (published.load(std::memory_order_acquire) < n) {
    const auto now = Clock::now();
    if (now < next_swap) {
      std::this_thread::sleep_for(
          std::min<Clock::duration>(next_swap - now,
                                    std::chrono::milliseconds(5)));
      continue;
    }
    next_swap += std::chrono::milliseconds(kSwapIntervalMs);
    const auto t0 = Clock::now();
    optinter::Status ss = server_->DeployCheckpoint(
        factory_, live_is_a_ ? path_b_ : path_a_);
    swap_ms.Add(Ms(t0));
    ++swaps;
    if (ss.ok()) {
      live_is_a_ = !live_is_a_;
    } else {
      ++swap_failures;
    }
  }
  client.join();
  ledger->Count(swaps, swap_failures, "hot-swaps");

  res.flushes = CounterValue("serve.flushes") - flushes0;
  Samples all;
  for (size_t i = 0; i < n; ++i) {
    const Slot& slot = slots[i];
    res.late_us.Add(
        std::chrono::duration<double, std::micro>(slot.sent - slot.due)
            .count());
    all.Add(slot.done_us);
    if (!slot.accepted) {
      ++res.rejected;
      continue;
    }
    res.latency_us.Add(slot.done_us);
    const size_t k = i % requests_.size();
    if (!SameBits(slot.value, exp_a_[k]) &&
        !SameBits(slot.value, exp_b_[k])) {
      ++res.wrong;
    }
  }
  res.sent = n;
  res.p99_with_misses_us = all.WindowedPercentile(99.0);
  res.last_window_p50_us = all.LastWindowPercentile(50.0);
  res.meets_slo = res.p99_with_misses_us <= kSubmitSloUs &&
                  res.last_window_p50_us <= kSubmitSloUs;
  ledger->Count(res.sent - res.rejected, res.wrong,
                "Submit answers matching a live generation (bitwise)");
  return res;
}

void RunServing(const Args& args, double budget_s, PipelineState* st,
                Ledger* ledger) {
  auto harness = std::make_shared<ServeHarness>(args, st, ledger);
  if (!harness->ok()) return;
  st->serve = harness;

  // (a) one closed-loop client on the fused batch-1 path, fp32 then int8,
  // and (b) the open loop at the reference rate, interleaved in slices
  // across the serving window. Each latency metric is the median over the
  // slices of each slice's exact percentile: other tenants' load on shared
  // VMs comes and goes within a run, and a few slow slices cannot decide
  // the median. The report keeps every slice's percentiles and the pooled
  // distributions.
  constexpr int kSlices = 16;
  const double slice_s = 0.7 * budget_s / kSlices;
  SliceStats fp32, int8, ref_latency;
  Samples ref_late;
  uint64_t ref_rejected = 0;
  for (int i = 0; i < kSlices; ++i) {
    fp32.Add(harness->ClosedLoop(harness->gen_a(), harness->expected_a(),
                                 0.4 * slice_s, ledger));
    int8.Add(harness->ClosedLoop(harness->int8(), harness->expected_int8(),
                                 0.15 * slice_s, ledger));
    OpenLoopResult ref =
        harness->OpenLoop(kReferenceRate, 0.45 * slice_s, ledger);
    ref_latency.Add(ref.latency_us);
    ref_late.Append(ref.late_us);
    ref_rejected += ref.rejected;
  }
  // Only the fp32 batch-1 median is steady enough across runs for a bound;
  // the tails, the int8 path and the open loop go to the per-layer ledger.
  ledger->Set("batch1_p50_us.fp32", fp32.P50(), "us");
  ledger->Check(ref_rejected == 0, "requests refused at the reference rate");
  st->predict_now_p50_us_fp32 = fp32.pooled.Median();
  st->predict_now_p50_us_int8 = int8.pooled.Median();
  const std::string ref = std::to_string(static_cast<int>(kReferenceRate));
  st->serving_layers = {
      {"serve.batch1_p99_us.fp32", fp32.P99(), "us"},
      {"serve.batch1_p50_us.int8", int8.P50(), "us"},
      {"serve.batch1_p99_us.int8", int8.P99(), "us"},
      {"serve.submit_p50_us.r" + ref, ref_latency.P50(), "us"},
      {"serve.submit_p99_us.r" + ref, ref_latency.P99(), "us"},
      {"loadgen.late_us_p99", ref_late.Percentile(99.0), "us"},
  };

  // Highest rate meeting the limit: doubling ladder from twice the
  // reference rate to the first miss, then geometric bisection. A rate
  // counts as missed only when three probes at it miss, so that a slow
  // spell of the host does not decide it.
  constexpr int kBisections = 3;
  constexpr double kMaxRate = 2.56e6;
  const double probe_s = 0.3 * budget_s / 14.0;
  std::vector<OpenLoopResult> probes;
  auto meets = [&](double rate) {
    for (int attempt = 0; attempt < 3; ++attempt) {
      probes.push_back(harness->OpenLoop(rate, probe_s, ledger));
      if (probes.back().meets_slo) return true;
    }
    return false;
  };
  double lo = kReferenceRate;
  double hi = 0.0;
  for (double r = 2.0 * kReferenceRate; r <= kMaxRate; r *= 2.0) {
    if (!meets(r)) {
      hi = r;
      break;
    }
    lo = r;
  }
  for (int b = 0; b < kBisections && hi > 0.0; ++b) {
    const double mid = std::sqrt(lo * hi);
    (meets(mid) ? lo : hi) = mid;
  }
  st->serving_layers.push_back({"serve.max_rate_at_slo", lo, "req/s"});

  JsonValue notes = JsonValue::MakeObject();
  notes.Set("batch1_fp32_us", fp32.Report());
  notes.Set("batch1_int8_us", int8.Report());
  notes.Set("submit_reference_us", ref_latency.Report());
  notes.Set("reference_rate", JsonValue::Double(kReferenceRate));
  notes.Set("slo_p99_us", JsonValue::Double(kSubmitSloUs));
  notes.Set("loadgen_late_us", ref_late.Summary());
  JsonValue ladder = JsonValue::MakeArray();
  for (const OpenLoopResult& p : probes) {
    JsonValue row = JsonValue::MakeObject();
    row.Set("rate", JsonValue::Double(p.rate));
    row.Set("p99_with_misses_us", JsonValue::Double(
        std::isfinite(p.p99_with_misses_us) ? p.p99_with_misses_us : -1.0));
    row.Set("rejected", JsonValue::Uint(p.rejected));
    row.Set("meets_slo", JsonValue::Bool(p.meets_slo));
    ladder.Push(std::move(row));
  }
  notes.Set("max_rate_at_slo", JsonValue::Double(lo));
  notes.Set("rate_search", std::move(ladder));
  notes.Set("swap_ms", harness->swap_ms.Summary());
  ledger->Note("serving", std::move(notes));
}

}  // namespace perfbench

#include "obs/timeline.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <vector>

#include "obs/json.h"
#include "obs/registry.h"

namespace optinter {
namespace obs {
namespace {

struct TimelineEvent {
  const char* name = nullptr;
  uint64_t ts_ns = 0;
  uint64_t seq = 0;  // per-thread monotonic index (sort tie-break)
  char phase = 'B';
  char detail[Timeline::kDetailCapacity] = {0};
};

// Per-thread ring. The mutex is uncontended on the record path (only the
// owner thread writes); Flush from another thread locks it briefly per
// ring to copy a consistent snapshot, which keeps the whole timeline
// layer TSan-clean.
struct ThreadRing {
  explicit ThreadRing(uint32_t tid_in, size_t capacity)
      : tid(tid_in), events(capacity) {}

  void Record(const char* name, char phase, const char* detail,
              uint64_t ts_ns) {
    std::lock_guard<std::mutex> lock(mutex);
    TimelineEvent& e = events[next];
    e.name = name;
    e.ts_ns = ts_ns;
    e.seq = total;
    e.phase = phase;
    if (detail != nullptr) {
      std::strncpy(e.detail, detail, sizeof(e.detail) - 1);
      e.detail[sizeof(e.detail) - 1] = '\0';
    } else {
      e.detail[0] = '\0';
    }
    next = (next + 1) % events.size();
    ++total;
  }

  const uint32_t tid;
  std::mutex mutex;
  std::vector<TimelineEvent> events;
  size_t next = 0;      // slot the NEXT event goes into
  uint64_t total = 0;   // events ever recorded (>= events.size() ⇒ wrapped)
};

struct GlobalState {
  std::mutex mutex;
  std::vector<ThreadRing*> rings;  // leaked on purpose (outlive threads)
  std::string path;
  size_t capacity = Timeline::kDefaultCapacity;
  uint32_t next_tid = 0;
  std::chrono::steady_clock::time_point epoch;
};

GlobalState& Global() {
  static GlobalState* g = new GlobalState();
  return *g;
}

// 0 = uninitialized, 1 = on, 2 = off.
std::atomic<int> g_mode{0};

void FlushAtExit() { Timeline::Flush(); }

int InitMode() {
  GlobalState& g = Global();
  std::lock_guard<std::mutex> lock(g.mutex);
  int mode = g_mode.load(std::memory_order_acquire);
  if (mode != 0) return mode;  // lost the init race
  const char* path = std::getenv("OPTINTER_OBS_TIMELINE");
  if (path == nullptr || path[0] == '\0') {
    g_mode.store(2, std::memory_order_release);
    return 2;
  }
  g.path = path;
  if (const char* cap = std::getenv("OPTINTER_OBS_TIMELINE_EVENTS")) {
    if (const size_t parsed = Timeline::ParseCapacity(cap); parsed != 0) {
      g.capacity = parsed;
    } else {
      std::fprintf(stderr,
                   "[obs] ignoring OPTINTER_OBS_TIMELINE_EVENTS='%s': not an "
                   "integer in [2, %zu]; using %zu\n",
                   cap, Timeline::kMaxCapacity, g.capacity);
    }
  }
  g.epoch = std::chrono::steady_clock::now();
  std::atexit(FlushAtExit);
  g_mode.store(1, std::memory_order_release);
  return 1;
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - Global().epoch)
          .count());
}

ThreadRing* GetThreadRing() {
  // Heap-allocated and never freed: rings must outlive pool workers so a
  // flush after thread exit still sees their events.
  thread_local ThreadRing* ring = [] {
    GlobalState& g = Global();
    std::lock_guard<std::mutex> lock(g.mutex);
    auto* r = new ThreadRing(g.next_tid++, g.capacity);
    g.rings.push_back(r);
    return r;
  }();
  return ring;
}

void Record(const char* name, char phase, const char* detail) {
  GetThreadRing()->Record(name, phase, detail, NowNs());
}

}  // namespace

size_t Timeline::ParseCapacity(const char* text) {
  // strtoll saturates out-of-range input, which the bounds then refuse.
  char* end = nullptr;
  const long long v = std::strtoll(text, &end, 10);
  const bool whole = end != text && *end == '\0';
  return whole && v >= 2 && v <= static_cast<long long>(kMaxCapacity)
             ? static_cast<size_t>(v)
             : 0;
}

bool Timeline::Enabled() {
  int mode = g_mode.load(std::memory_order_acquire);
  if (mode == 0) mode = InitMode();
  return mode == 1;
}

void Timeline::RecordBegin(const char* name) {
  if (!Enabled()) return;
  Record(name, 'B', nullptr);
}

void Timeline::RecordEnd(const char* name) {
  if (!Enabled()) return;
  Record(name, 'E', nullptr);
}

void Timeline::RecordInstant(const char* name, const char* detail) {
  if (!Enabled()) return;
  Record(name, 'i', detail);
}

uint64_t Timeline::DroppedEvents() {
  GlobalState& g = Global();
  std::lock_guard<std::mutex> lock(g.mutex);
  uint64_t dropped = 0;
  for (ThreadRing* ring : g.rings) {
    std::lock_guard<std::mutex> ring_lock(ring->mutex);
    const uint64_t cap = ring->events.size();
    if (ring->total > cap) dropped += ring->total - cap;
  }
  return dropped;
}

std::string Timeline::RenderJson() {
  struct Snapshot {
    TimelineEvent event;
    uint32_t tid;
  };
  std::vector<Snapshot> all;
  uint64_t dropped = 0;
  uint32_t max_tid = 0;
  {
    GlobalState& g = Global();
    std::lock_guard<std::mutex> lock(g.mutex);
    for (ThreadRing* ring : g.rings) {
      std::lock_guard<std::mutex> ring_lock(ring->mutex);
      const uint64_t cap = ring->events.size();
      const uint64_t kept = std::min<uint64_t>(ring->total, cap);
      if (ring->total > cap) dropped += ring->total - cap;
      // Oldest surviving event: slot `next` once wrapped, slot 0 before.
      const size_t start = ring->total > cap ? ring->next : 0;
      for (uint64_t k = 0; k < kept; ++k) {
        all.push_back({ring->events[(start + k) % cap], ring->tid});
      }
      max_tid = std::max(max_tid, ring->tid);
    }
  }
  std::sort(all.begin(), all.end(), [](const Snapshot& a, const Snapshot& b) {
    if (a.event.ts_ns != b.event.ts_ns) return a.event.ts_ns < b.event.ts_ns;
    if (a.tid != b.tid) return a.tid < b.tid;
    return a.event.seq < b.event.seq;
  });

  JsonValue events = JsonValue::MakeArray();
  // Thread-name metadata so Perfetto labels the tracks.
  for (uint32_t t = 0; t <= max_tid && !all.empty(); ++t) {
    JsonValue meta = JsonValue::MakeObject();
    meta.Set("name", JsonValue::Str("thread_name"));
    meta.Set("ph", JsonValue::Str("M"));
    meta.Set("pid", JsonValue::Int(1));
    meta.Set("tid", JsonValue::Int(t));
    JsonValue args = JsonValue::MakeObject();
    args.Set("name", JsonValue::Str("optinter-thread-" + std::to_string(t)));
    meta.Set("args", std::move(args));
    events.Push(std::move(meta));
  }
  for (const Snapshot& s : all) {
    JsonValue e = JsonValue::MakeObject();
    e.Set("name", JsonValue::Str(s.event.name));
    e.Set("ph", JsonValue::Str(std::string(1, s.event.phase)));
    if (s.event.phase == 'i') e.Set("s", JsonValue::Str("t"));
    e.Set("ts", JsonValue::Double(static_cast<double>(s.event.ts_ns) * 1e-3));
    e.Set("pid", JsonValue::Int(1));
    e.Set("tid", JsonValue::Int(s.tid));
    if (s.event.detail[0] != '\0') {
      JsonValue args = JsonValue::MakeObject();
      args.Set("detail", JsonValue::Str(s.event.detail));
      e.Set("args", std::move(args));
    }
    events.Push(std::move(e));
  }

  JsonValue out = JsonValue::MakeObject();
  out.Set("displayTimeUnit", JsonValue::Str("ns"));
  JsonValue other = JsonValue::MakeObject();
  other.Set("source", JsonValue::Str("optinter"));
  other.Set("dropped_events", JsonValue::Uint(dropped));
  out.Set("otherData", std::move(other));
  out.Set("traceEvents", std::move(events));
  return out.Serialize(/*indent=*/-1);
}

bool Timeline::FlushTo(const std::string& path, std::string* error) {
  MetricsRegistry::Global()
      .GetGauge("obs.timeline.dropped_events")
      ->Set(static_cast<double>(DroppedEvents()));
  const std::string body = RenderJson();
  // Write-then-rename so anything tailing the timeline never reads a
  // torn file (same contract as RunReport::WriteFile).
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::out | std::ios::trunc);
    if (!out) {
      if (error != nullptr) *error = "cannot open " + tmp + " for writing";
      return false;
    }
    out << body << "\n";
    out.flush();
    if (!out) {
      if (error != nullptr) *error = "write to " + tmp + " failed";
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    if (error != nullptr) *error = "rename " + tmp + " -> " + path + " failed";
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

bool Timeline::Flush(std::string* error) {
  if (!Enabled()) return false;
  std::string path;
  {
    GlobalState& g = Global();
    std::lock_guard<std::mutex> lock(g.mutex);
    path = g.path;
  }
  if (path.empty()) return false;
  return FlushTo(path, error);
}

void Timeline::EnableForTest(const std::string& path, size_t capacity) {
  GlobalState& g = Global();
  std::lock_guard<std::mutex> lock(g.mutex);
  g.path = path;
  g.capacity = capacity < 2 ? 2 : capacity;
  g.epoch = std::chrono::steady_clock::now();
  for (ThreadRing* ring : g.rings) {
    std::lock_guard<std::mutex> ring_lock(ring->mutex);
    ring->events.assign(g.capacity, TimelineEvent{});
    ring->next = 0;
    ring->total = 0;
  }
  g_mode.store(1, std::memory_order_release);
}

void Timeline::DisableForTest() {
  GlobalState& g = Global();
  std::lock_guard<std::mutex> lock(g.mutex);
  for (ThreadRing* ring : g.rings) {
    std::lock_guard<std::mutex> ring_lock(ring->mutex);
    ring->next = 0;
    ring->total = 0;
  }
  g_mode.store(2, std::memory_order_release);
}

}  // namespace obs
}  // namespace optinter

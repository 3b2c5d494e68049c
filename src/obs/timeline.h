// Opt-in per-thread timeline of span begin/end (and instant) events,
// exported as Chrome trace-event JSON so any run opens directly in
// Perfetto or chrome://tracing.
//
// Enabled by setting OPTINTER_OBS_TIMELINE=<path> before the first span;
// the process then records every TraceSpan enter/exit into a per-thread
// ring buffer and flushes <path> at exit (and whenever Timeline::Flush is
// called). Memory is bounded: each thread keeps at most
// OPTINTER_OBS_TIMELINE_EVENTS events (80 bytes each; default 65536, 5 MiB
// per thread; values above 2^20 are refused with a warning);
// when a ring wraps, the OLDEST events are overwritten and a per-thread
// drop counter — surfaced in the output's "otherData" and as the
// obs.timeline.dropped_events metric — records how many were lost.
//
// Event names must be string literals (the span-name contract); instant
// events may carry a short inline detail string (truncated to
// kDetailCapacity - 1 chars) that lands in the event's "args".
//
// When the env var is unset the record path is one relaxed atomic load —
// the same near-free branch as the obs kill switch.
//
// This library sits below src/common, so nothing here may include
// common/ headers.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace optinter {
namespace obs {

class Timeline {
 public:
  /// Inline capacity for instant-event detail strings (incl. NUL).
  static constexpr size_t kDetailCapacity = 48;

  /// Per-thread ring capacity in events: the default, and the largest
  /// OPTINTER_OBS_TIMELINE_EVENTS value honored (80 MiB per thread).
  static constexpr size_t kDefaultCapacity = 65536;
  static constexpr size_t kMaxCapacity = size_t{1} << 20;

  /// Parses an OPTINTER_OBS_TIMELINE_EVENTS value: the whole string must
  /// be a decimal integer in [2, kMaxCapacity]. Returns 0 for anything
  /// else (the caller warns and keeps the default).
  static size_t ParseCapacity(const char* text);

  /// True when timeline recording is on (lazily reads
  /// OPTINTER_OBS_TIMELINE on first call; EnableForTest overrides).
  static bool Enabled();

  /// Records a span-begin / span-end event on the calling thread.
  /// `name` must outlive the program (string literals do).
  static void RecordBegin(const char* name);
  static void RecordEnd(const char* name);

  /// Records an instant event ("i" phase), optionally with a short detail
  /// string copied inline (truncated to kDetailCapacity - 1 chars).
  static void RecordInstant(const char* name, const char* detail = nullptr);

  /// Total events overwritten by ring wrap-around across all threads.
  static uint64_t DroppedEvents();

  /// Serializes all threads' rings (merged, sorted by timestamp) as a
  /// Chrome trace-event JSON object and writes it to `path` (atomically:
  /// <path>.tmp then rename). Safe to call while other threads record —
  /// events written during the flush may or may not be included.
  static bool FlushTo(const std::string& path, std::string* error = nullptr);

  /// FlushTo the configured OPTINTER_OBS_TIMELINE path; no-op (returns
  /// false) when recording is off. Runs automatically at process exit.
  static bool Flush(std::string* error = nullptr);

  /// Test hooks: enable recording to `path` with the given per-thread
  /// ring capacity, or disable and clear every thread's ring + drop
  /// counters. Call only while instrumented threads are quiescent.
  static void EnableForTest(const std::string& path, size_t capacity);
  static void DisableForTest();

  /// The Chrome trace JSON for the current rings (what FlushTo writes).
  /// Exposed for tests.
  static std::string RenderJson();
};

}  // namespace obs
}  // namespace optinter

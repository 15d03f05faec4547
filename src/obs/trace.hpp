#pragma once

// Scoped spans with thread attribution and Chrome trace-event export.
//
// The profiling story of the source papers (TestSNAP's V1–V7 ladder, the
// paper's Pair/Comm/Other attribution) needs per-stage wall-clock spans,
// not just end-of-run totals. This file provides:
//
//   * TraceSession — one process-wide session. start()/stop() flips a
//     single relaxed atomic.
//   * ScopedSpan — the one RAII scope. Timed (given a sink), it reads the
//     clock once on entry and once on exit whether or not tracing is on,
//     adds the interval's seconds to the sink (a TimerSet bucket, a pool
//     worker's busy seconds, a step's duration) and, while tracing is on,
//     records the same two readings as its span, so a stage's timer and
//     its span cannot disagree. Untimed, it costs one relaxed load while
//     tracing is off and reads no clock. A recorded span holds name,
//     category, thread, nesting depth, start and duration in a per-thread
//     buffer (own mutex per buffer: appends are uncontended; exports are
//     safe concurrently).
//   * Chrome trace-event JSON export ("traceEvents" with "ph":"X"
//     complete events, microsecond timestamps) — loadable directly in
//     Perfetto / chrome://tracing. Thread-name metadata events label the
//     pool workers and in-process MPI ranks.
//
// Span names must be string literals (or otherwise outlive the session):
// the buffer stores pointers, never copies, so the hot path does no
// allocation.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace ember::obs {

// The clock every span and timed scope reads: steady_clock, nanoseconds.
[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanEvent {
  const char* name = nullptr;
  const char* cat = nullptr;
  std::int64_t start_ns = 0;  // relative to session start
  std::int64_t dur_ns = 0;
  int tid = 0;    // session-stable small integer, 0 = first thread seen
  int depth = 0;  // nesting level on its thread at span entry
  // Optional single integer annotation ("step": 1234).
  const char* arg_key = nullptr;
  std::int64_t arg_val = 0;
};

class TraceSession {
 public:
  static TraceSession& global();

  // Enable span recording. Also clears nothing: call clear() first for a
  // fresh trace. Idempotent.
  void start();
  void stop();
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  // Drop all recorded events (keeps thread registrations and names).
  void clear();

  // Label the calling thread in the exported trace ("pool-worker-3",
  // "rank-0"). Safe to call before any span on the thread.
  void set_thread_name(const std::string& name);

  // Merged copy of every thread's events (ordered per thread; safe while
  // other threads keep recording).
  [[nodiscard]] std::vector<SpanEvent> snapshot() const;

  // Number of recorded events named `name` (test convenience).
  [[nodiscard]] long count(const char* name) const;

  // Chrome trace-event JSON document / file.
  [[nodiscard]] Json chrome_trace() const;
  void write_chrome_trace(const std::string& path) const;

 private:
  friend class ScopedSpan;
  struct ThreadBuffer;

  TraceSession();
  ThreadBuffer& buffer();  // this thread's buffer, created on first use

  std::atomic<bool> enabled_{false};
  // Session epoch: written once in the constructor, read concurrently by
  // every span — const so no lock discipline can ever apply to it.
  const std::int64_t t0_ns_;

  struct Impl;
  Impl* impl_;  // leaked singleton internals (threads may outlive exit order)
};

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, const char* cat = "other")
      : ScopedSpan(name, cat, nullptr) {}
  // sink != nullptr: a timed scope, whose seconds are added to *sink.
  // arg_key/arg_val: optional single integer annotation ("step": 1234).
  ScopedSpan(const char* name, const char* cat, double* sink,
             const char* arg_key = nullptr, std::int64_t arg_val = 0);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  double* sink_;
  TraceSession::ThreadBuffer* buf_ = nullptr;  // null when session disabled
  std::int64_t start_ns_ = 0;  // absolute; read only if sink_ or buf_ is set
  SpanEvent ev_;
};

}  // namespace ember::obs

// Untimed span with a line-unique variable name.
#define EMBER_OBS_CONCAT2(a, b) a##b
#define EMBER_OBS_CONCAT(a, b) EMBER_OBS_CONCAT2(a, b)
#define EMBER_OBS_SPAN(name, cat) \
  ember::obs::ScopedSpan EMBER_OBS_CONCAT(ember_span_, __LINE__)(name, cat)

#ifndef PPP_OBS_SPAN_H_
#define PPP_OBS_SPAN_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/bounded_ring.h"

namespace ppp::obs {

/// One completed span: a named wall-clock interval on one thread.
/// Timestamps are microseconds since the tracer's epoch (steady clock), the
/// unit Chrome's trace-event format uses. Nesting is implicit: spans on the
/// same thread close in LIFO order (they are RAII scopes), so an event's
/// parent is the enclosing interval with the same tid.
struct SpanEvent {
  std::string name;
  std::string cat;
  double ts_us = 0.0;
  double dur_us = 0.0;
  int tid = 0;
  std::vector<std::pair<std::string, std::string>> args;
};

/// Small dense id of the calling thread (0 for the first thread that asks,
/// then 1, 2, ...). Stable for the thread's lifetime; used as the Chrome
/// trace `tid` so per-worker execute spans land on distinct tracks.
int CurrentThreadId();

/// Process-wide ring of SpanEvents for the per-query lifecycle trace
/// (parse → bind → rewrite → optimize → execute). Off by default; enabled
/// by the PPP_TRACE_SPANS environment variable or \spans in the shell.
/// When off, instrumented sites pay exactly one relaxed atomic load.
///
/// The ring is bounded at kCapacity spans: past it the oldest span is
/// overwritten and counted in dropped(), so a long shell session cannot
/// grow without limit and a dump always holds the most recent spans.
class SpanTracer : public BoundedRing<SpanEvent> {
 public:
  static constexpr size_t kCapacity = size_t{1} << 20;

  /// The tracer every built-in instrumentation site records into.
  static SpanTracer& Global();

  /// Microseconds since this tracer's construction (steady clock).
  double NowMicros() const;

  /// The instant ts_us values are measured from.
  std::chrono::steady_clock::time_point epoch() const { return epoch_; }

  /// Stamps the calling thread's query/session ids onto one finished span
  /// and appends it (thread-safe).
  void Record(SpanEvent event);

  /// Query/session ids stamped onto every span recorded while nonzero (as
  /// "query_id" / "session_id" args), correlating a trace with its
  /// ppp_query_log row and session. Thread-local, not global: concurrent
  /// sessions run queries simultaneously, so each thread carries its own
  /// attribution. Parallel-eval workers inherit the coordinator's ids
  /// explicitly (parallel_eval installs a QueryIdScope inside the worker
  /// lambda). Set via QueryIdScope.
  static uint64_t current_query_id();
  static uint64_t current_session_id();
  static void set_current_ids(uint64_t query_id, uint64_t session_id);

  /// Spans overwritten since the last Clear().
  uint64_t dropped() const { return evicted(); }

 private:
  SpanTracer();

  const std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
};

/// RAII span over the global tracer: construction checks the enabled flag
/// (the only cost when tracing is off), destruction records the completed
/// interval. Movable so spans can live in std::optional; not copyable.
class Span {
 public:
  Span(std::string_view cat, std::string_view name);
  ~Span() { End(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&& other) noexcept;
  Span& operator=(Span&& other) noexcept;

  /// False when the tracer was disabled at construction (no-op span).
  bool active() const { return tracer_ != nullptr; }

  void AddArg(std::string_view key, std::string_view value);

  /// Closes the span now (idempotent; the destructor calls it).
  void End();

 private:
  SpanTracer* tracer_ = nullptr;
  SpanEvent event_;
  std::chrono::steady_clock::time_point start_;
};

/// RAII scope that stamps the calling thread with a query id (and
/// optionally a session id) for the duration of one query's lifecycle
/// (optimize + execute), restoring the previous ids on exit so nested
/// scopes (introspection queries issued from inside a bench loop) unwind
/// correctly. Thread-local, so concurrent sessions don't clobber each
/// other's attribution.
class QueryIdScope {
 public:
  explicit QueryIdScope(uint64_t query_id, uint64_t session_id = 0)
      : previous_query_(SpanTracer::current_query_id()),
        previous_session_(SpanTracer::current_session_id()) {
    SpanTracer::set_current_ids(query_id, session_id);
  }
  ~QueryIdScope() {
    SpanTracer::set_current_ids(previous_query_, previous_session_);
  }

  QueryIdScope(const QueryIdScope&) = delete;
  QueryIdScope& operator=(const QueryIdScope&) = delete;

 private:
  uint64_t previous_query_;
  uint64_t previous_session_;
};

}  // namespace ppp::obs

#endif  // PPP_OBS_SPAN_H_

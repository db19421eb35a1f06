#include "obs/span.h"

#include <atomic>

#include "obs/env_flag.h"

namespace ppp::obs {

namespace {

std::atomic<int> next_thread_id{0};

// Per-thread query/session attribution (see SpanTracer::set_current_ids).
thread_local uint64_t tls_query_id = 0;
thread_local uint64_t tls_session_id = 0;

}  // namespace

int CurrentThreadId() {
  thread_local const int id =
      next_thread_id.fetch_add(1, std::memory_order_relaxed);
  return id;
}

SpanTracer::SpanTracer()
    : BoundedRing(kCapacity, EnvFlag("PPP_TRACE_SPANS", false)) {}

SpanTracer& SpanTracer::Global() {
  static SpanTracer* tracer = new SpanTracer();
  return *tracer;
}

double SpanTracer::NowMicros() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

uint64_t SpanTracer::current_query_id() { return tls_query_id; }

uint64_t SpanTracer::current_session_id() { return tls_session_id; }

void SpanTracer::set_current_ids(uint64_t query_id, uint64_t session_id) {
  tls_query_id = query_id;
  tls_session_id = session_id;
}

void SpanTracer::Record(SpanEvent event) {
  if (tls_query_id != 0) {
    event.args.emplace_back("query_id", std::to_string(tls_query_id));
  }
  if (tls_session_id != 0) {
    event.args.emplace_back("session_id", std::to_string(tls_session_id));
  }
  Append(std::move(event));
}

Span::Span(std::string_view cat, std::string_view name) {
  SpanTracer& tracer = SpanTracer::Global();
  if (!tracer.enabled()) return;  // The one branch paid when tracing is off.
  tracer_ = &tracer;
  start_ = std::chrono::steady_clock::now();
  // ts and dur derive from the same clock read, so a child's ts + dur can
  // never exceed its enclosing span's — nesting stays strict in the export.
  event_.ts_us = std::chrono::duration<double, std::micro>(
                     start_ - tracer.epoch())
                     .count();
  event_.name.assign(name.data(), name.size());
  event_.cat.assign(cat.data(), cat.size());
  event_.tid = CurrentThreadId();
}

Span::Span(Span&& other) noexcept
    : tracer_(other.tracer_),
      event_(std::move(other.event_)),
      start_(other.start_) {
  other.tracer_ = nullptr;
}

Span& Span::operator=(Span&& other) noexcept {
  if (this != &other) {
    End();
    tracer_ = other.tracer_;
    event_ = std::move(other.event_);
    start_ = other.start_;
    other.tracer_ = nullptr;
  }
  return *this;
}

void Span::AddArg(std::string_view key, std::string_view value) {
  if (tracer_ == nullptr) return;
  event_.args.emplace_back(std::string(key), std::string(value));
}

void Span::End() {
  if (tracer_ == nullptr) return;
  event_.dur_us = std::chrono::duration<double, std::micro>(
                      std::chrono::steady_clock::now() - start_)
                      .count();
  tracer_->Record(std::move(event_));
  tracer_ = nullptr;
}

}  // namespace ppp::obs

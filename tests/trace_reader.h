// Test helper: reads Chrome trace-event JSON written by
// obs::ToChromeTraceJson back into spans, and checks that spans nest
// strictly per thread. Linked into the tests that round-trip traces; the
// engine itself only writes traces.
#ifndef PPP_TESTS_TRACE_READER_H_
#define PPP_TESTS_TRACE_READER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/span.h"

namespace ppp::obs {

/// A parsed trace: the spans plus the metadata the exporter wrote.
struct ParsedTrace {
  std::vector<SpanEvent> events;
  uint64_t dropped_events = 0;
};

/// Parses Chrome trace-event JSON produced by ToChromeTraceJson back into
/// events (phase-"X" entries only) and metadata. Strict enough to prove the
/// export is well-formed JSON with the expected schema; tests round-trip
/// through it.
common::Result<ParsedTrace> ParseChromeTraceFull(const std::string& json);

/// Events-only convenience wrapper around ParseChromeTraceFull.
common::Result<std::vector<SpanEvent>> ParseChromeTrace(
    const std::string& json);

/// Checks that spans nest strictly per thread: for any two spans on the
/// same tid, their intervals are either disjoint or one contains the
/// other. RAII spans guarantee this by construction; the check guards the
/// exporter (and any future non-RAII recorder) in tests.
common::Status ValidateSpanNesting(const std::vector<SpanEvent>& events);

}  // namespace ppp::obs

#endif  // PPP_TESTS_TRACE_READER_H_

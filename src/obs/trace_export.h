#ifndef PPP_OBS_TRACE_EXPORT_H_
#define PPP_OBS_TRACE_EXPORT_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "obs/span.h"

namespace ppp::obs {

/// Serializes spans as Chrome trace-event JSON ("X" complete events with
/// microsecond ts/dur), the format chrome://tracing and Perfetto load
/// directly: {"traceEvents": [{"name": ..., "cat": ..., "ph": "X", ...}]}.
/// `dropped_events` (spans the tracer's ring overwrote) is recorded in the
/// top-level "otherData" metadata so it survives a round-trip.
std::string ToChromeTraceJson(const std::vector<SpanEvent>& events,
                              uint64_t dropped_events = 0);

/// Writes ToChromeTraceJson(events, dropped_events) to `path`.
common::Status WriteChromeTrace(const std::string& path,
                                const std::vector<SpanEvent>& events,
                                uint64_t dropped_events = 0);

}  // namespace ppp::obs

#endif  // PPP_OBS_TRACE_EXPORT_H_

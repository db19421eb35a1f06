#include "obs/trace_export.h"

#include <cmath>
#include <fstream>

#include "common/string_util.h"

namespace ppp::obs {

namespace {

using common::JsonEscape;

std::string NumberToJson(double v) {
  if (!std::isfinite(v)) return "0";
  return common::StringPrintf("%.17g", v);
}

}  // namespace

std::string ToChromeTraceJson(const std::vector<SpanEvent>& events,
                              uint64_t dropped_events) {
  // `otherData` is Chrome's free-form metadata object; the dropped count
  // rides there so a capped trace still records how much it lost. Built
  // with append() rather than operator+ chains, which trip GCC 12's
  // -Werror=restrict false positives at -O3.
  std::string out = "{\"displayTimeUnit\": \"ms\", \"otherData\": "
                    "{\"droppedEvents\": \"";
  out.append(std::to_string(dropped_events))
      .append("\"}, \"traceEvents\": [\n");
  for (size_t i = 0; i < events.size(); ++i) {
    const SpanEvent& e = events[i];
    out.append("  {\"name\": \"")
        .append(JsonEscape(e.name))
        .append("\", \"cat\": \"")
        .append(JsonEscape(e.cat))
        .append("\", \"ph\": \"X\", \"ts\": ")
        .append(NumberToJson(e.ts_us))
        .append(", \"dur\": ")
        .append(NumberToJson(e.dur_us))
        .append(", \"pid\": 1, \"tid\": ")
        .append(std::to_string(e.tid));
    if (!e.args.empty()) {
      out.append(", \"args\": {");
      for (size_t a = 0; a < e.args.size(); ++a) {
        if (a > 0) out.append(", ");
        out.append("\"")
            .append(JsonEscape(e.args[a].first))
            .append("\": \"")
            .append(JsonEscape(e.args[a].second))
            .append("\"");
      }
      out.append("}");
    }
    out.append("}");
    if (i + 1 < events.size()) out.append(",");
    out.append("\n");
  }
  out += "]}\n";
  return out;
}

common::Status WriteChromeTrace(const std::string& path,
                                const std::vector<SpanEvent>& events,
                                uint64_t dropped_events) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return common::Status::Internal("cannot open " + path + " for writing");
  }
  out << ToChromeTraceJson(events, dropped_events);
  out.close();
  if (out.fail()) return common::Status::Internal("failed writing " + path);
  return common::Status::OK();
}

}  // namespace ppp::obs

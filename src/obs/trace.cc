#include "obs/trace.h"

#include "common/string_util.h"

namespace ppp::obs {

namespace {

std::string ValuesToText(const std::vector<double>& values) {
  if (values.empty()) return "";
  std::vector<std::string> parts;
  parts.reserve(values.size());
  for (const double v : values) {
    parts.push_back(common::StringPrintf("%.6g", v));
  }
  return " [" + common::Join(parts, " ") + "]";
}

}  // namespace

void OptTrace::Add(std::string label, std::string detail,
                   std::vector<double> values) {
  entries_.push_back(
      TraceEntry{std::move(label), std::move(detail), std::move(values)});
}

std::vector<const TraceEntry*> OptTrace::Find(std::string_view label) const {
  std::vector<const TraceEntry*> out;
  for (const TraceEntry& entry : entries_) {
    if (entry.label == label) out.push_back(&entry);
  }
  return out;
}

std::string OptTrace::ToText() const {
  std::string out;
  for (const TraceEntry& entry : entries_) {
    out += entry.label;
    if (!entry.detail.empty()) out += ": " + entry.detail;
    out += ValuesToText(entry.values);
    out += "\n";
  }
  return out;
}

}  // namespace ppp::obs

#ifndef PPP_OBS_TRACE_H_
#define PPP_OBS_TRACE_H_

#include <string>
#include <string_view>
#include <vector>

namespace ppp::obs {

/// One recorded optimizer decision: a dotted label ("dp.prune",
/// "migration.groups"), free-text detail, and an optional numeric payload
/// (e.g. the composed group ranks along a stream).
struct TraceEntry {
  std::string label;
  std::string detail;
  std::vector<double> values;
};

/// Append-only sink for optimizer decisions, threaded through
/// OptimizerContext. Null pointer = tracing off; every producer guards on
/// that, so the untraced path costs one branch.
class OptTrace {
 public:
  void Add(std::string label, std::string detail,
           std::vector<double> values = {});

  const std::vector<TraceEntry>& entries() const { return entries_; }
  bool empty() const { return entries_.empty(); }
  void Clear() { entries_.clear(); }

  /// All entries whose label equals `label`, in recording order.
  std::vector<const TraceEntry*> Find(std::string_view label) const;

  /// Human-readable dump, one entry per line.
  std::string ToText() const;

 private:
  std::vector<TraceEntry> entries_;
};

}  // namespace ppp::obs

#endif  // PPP_OBS_TRACE_H_

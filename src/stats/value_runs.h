#ifndef PPP_STATS_VALUE_RUNS_H_
#define PPP_STATS_VALUE_RUNS_H_

#include <cstdint>
#include <vector>

#include "types/value.h"

namespace ppp::stats {

/// One run of equal values (under Value::Compare) in a sorted column.
struct ValueRun {
  types::Value value;  ///< The run's first copy in input order.
  uint64_t count = 0;  ///< Copies in the run (>= 1).
};

/// Sorts `values` once, ascending under Value::Compare, and returns its
/// runs of equal values in that order — the one ordering pass ANALYZE
/// derives MCVs, histogram buckets and distinct counts from. Values that
/// compare equal but differ in type (5 and 5.0) share a run, headed by
/// whichever comes first in `values`. When every value is native int64 the
/// sort is over (key, input position) pairs; otherwise it is a stable sort
/// under Value::Compare. NULLs, if any, form the first run.
std::vector<ValueRun> SortedRuns(std::vector<types::Value> values);

}  // namespace ppp::stats

#endif  // PPP_STATS_VALUE_RUNS_H_

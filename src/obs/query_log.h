#ifndef PPP_OBS_QUERY_LOG_H_
#define PPP_OBS_QUERY_LOG_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>

#include "obs/bounded_ring.h"
#include "obs/stats_tier.h"

namespace ppp::obs {

/// One executed statement, recorded by serve::Session once the execution
/// returns (nested subquery executions write no record of their own).
/// Counter-valued fields come from the statement's own ExecContext and
/// operators (see DESIGN §7), so they stay exact while other sessions
/// execute concurrently.
struct QueryLogRecord {
  uint64_t query_id = 0;
  /// Serving-layer session that ran the statement.
  uint64_t session_id = 0;
  /// FNV-1a of the bound QuerySpec's canonical text — the normalized query,
  /// stable across literal formatting but not across constants.
  uint64_t text_hash = 0;
  /// FNV-1a of the plan's structural signature (shape + placement), so
  /// repeated runs of one query group by plan.
  uint64_t plan_fingerprint = 0;
  std::string algorithm;
  double wall_seconds = 0.0;
  double optimize_seconds = 0.0;
  double execute_seconds = 0.0;
  uint64_t rows_in = 0;   // Tuples produced by leaf scans.
  uint64_t rows_out = 0;  // Tuples returned to the caller.
  /// UDF calls tallied in the execution's EvalContext.
  uint64_t udf_invocations = 0;
  /// Hits of the execution's function cache plus its predicate memos'
  /// per-bind hits.
  uint64_t cache_hits = 0;
  /// Rows the execution's Bloom transfers pruned.
  uint64_t transfer_pruned = 0;
  /// Predicates whose observed rank drifted past the profiler threshold.
  uint64_t drift_flags = 0;
  StatsTier stats_tier = StatsTier::kDeclared;
  /// Whole seconds since the log's epoch when the query finished
  /// (QueryLog::CurrentBucket): `GROUP BY bucket` over ppp_query_log gives
  /// per-second rates of every counter column above.
  int64_t bucket = 0;
  /// PlanHistory verdicts for this execution: the plan's fingerprint
  /// differed from this text_hash's previous plan (plan_changed), and the
  /// changed-to plan was established as measurably slower (plan_regressed).
  bool plan_changed = false;
  bool plan_regressed = false;
};

/// Process-wide bounded ring of QueryLogRecords, the backing store of the
/// ppp_query_log system table. On by default; PPP_QUERY_LOG=0 (or \log off
/// in the shell) disables appends. Thread-safe: records are appended from
/// whichever session thread finishes a statement, and snapshots are taken
/// by concurrent introspection scans. Clear() drops records, not identity:
/// query ids keep increasing.
class QueryLog : public BoundedRing<QueryLogRecord> {
 public:
  static constexpr size_t kDefaultCapacity = 4096;

  /// The log every session records into. Standalone instances are legal
  /// (tests build private rings); the engine only ever touches Global().
  static QueryLog& Global();

  QueryLog();

  /// Issues the next query id (1, 2, ...). Ids are issued even while
  /// disabled so spans stay correlatable across a \log off window.
  uint64_t NextQueryId() {
    return next_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// The 1 s bucket a record finishing now belongs to: whole seconds since
  /// this log was constructed.
  int64_t CurrentBucket() const {
    return std::chrono::duration_cast<std::chrono::seconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

 private:
  const std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  std::atomic<uint64_t> next_id_{0};
};

}  // namespace ppp::obs

#endif  // PPP_OBS_QUERY_LOG_H_

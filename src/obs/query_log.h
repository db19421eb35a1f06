#ifndef PPP_OBS_QUERY_LOG_H_
#define PPP_OBS_QUERY_LOG_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/bounded_ring.h"

namespace ppp::obs {

/// How much the optimizer trusted its selectivity/cost inputs for a plan:
/// the *weakest* source among the plan's predicates (a single declared-only
/// guess taints the whole plan's provenance). Ordered from weakest to
/// strongest, matching the provenance ladder feedback > stats > declared.
enum class StatsTier : int {
  kDeclared = 0,  // Catalog declarations only.
  kStats = 1,     // ANALYZE histograms/MCVs/NDV sketches.
  kFeedback = 2,  // Profiled observed costs and selectivities.
};

/// Lowercase name ("declared", "stats", "feedback") for display and the
/// ppp_query_log system table.
const char* StatsTierName(StatsTier tier);

/// One completed query, recorded at executor close time. Counter-valued
/// fields come from the execution's own ExecContext and operators (see
/// DESIGN §7), so they stay exact while other sessions execute
/// concurrently.
struct QueryLogRecord {
  uint64_t query_id = 0;
  /// Serving-layer session that ran the query (0 outside the serve layer,
  /// e.g. direct bench/test ExecutePlan calls).
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
/// whichever thread closes the executor, and snapshots are taken by
/// concurrent introspection scans.
class QueryLog {
 public:
  static constexpr size_t kDefaultCapacity = 4096;

  /// The log every executor records into. Standalone instances are legal
  /// (tests build private rings); the engine only ever touches Global().
  static QueryLog& Global();

  QueryLog();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

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

  /// Appends one record; past capacity the oldest record is overwritten
  /// (counted in evicted()). No-op while disabled.
  void Append(QueryLogRecord record) {
    if (enabled()) ring_.Append(std::move(record));
  }

  /// All retained records, oldest first.
  std::vector<QueryLogRecord> Snapshot() const { return ring_.Snapshot(); }

  /// The most recent `n` records, oldest first.
  std::vector<QueryLogRecord> Tail(size_t n) const { return ring_.Tail(n); }

  size_t size() const { return ring_.size(); }
  /// Records ever appended (including since-evicted ones).
  uint64_t total() const { return ring_.total(); }
  /// Records overwritten by ring wraparound.
  uint64_t evicted() const { return ring_.evicted(); }

  /// Shrinks or grows the ring; shrinking keeps the newest records.
  void set_capacity(size_t n) { ring_.set_capacity(n); }
  size_t capacity() const { return ring_.capacity(); }

  /// Drops all retained records and zeroes total/evicted. Query ids keep
  /// increasing (they are identities, not positions).
  void Clear() { ring_.Clear(); }

 private:
  const std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  std::atomic<bool> enabled_;
  std::atomic<uint64_t> next_id_{0};
  BoundedRing<QueryLogRecord> ring_{kDefaultCapacity};
};

}  // namespace ppp::obs

#endif  // PPP_OBS_QUERY_LOG_H_

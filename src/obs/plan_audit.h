#ifndef PPP_OBS_PLAN_AUDIT_H_
#define PPP_OBS_PLAN_AUDIT_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/bounded_ring.h"

namespace ppp::obs {

/// Cardinality q-error of one plan node: max(est/actual, actual/est), with
/// both sides clamped to >= 1 row so empty operators (and optimizer zero
/// estimates) never divide by zero or report an infinite error. 1.0 means
/// the estimate was perfect; the value is symmetric in over- and
/// under-estimation, the standard metric of the selectivity-estimation
/// literature.
double CardinalityQError(double est_rows, uint64_t actual_rows);

/// One operator of one executed plan, recorded by the executor's close-time
/// audit walk. Pairs the optimizer's estimate with the executed operator's
/// actuals, so a mis-estimate is attributable to the exact node (and hence
/// predicate or join) that produced it — the per-operator attribution the
/// global q-error histogram loses.
struct OperatorAuditRecord {
  uint64_t query_id = 0;
  /// Root-to-node child indexes, dot-joined ("0" = root, "0.1.0" = first
  /// child of the root's second child). Lexicographically stable within a
  /// query, and joinable against EXPLAIN output by eye.
  std::string path;
  /// Physical operator description (Operator::Describe()).
  std::string op;
  double est_rows = 0.0;      ///< Optimizer cardinality estimate.
  uint64_t actual_rows = 0;   ///< Rows the operator actually produced.
  /// CardinalityQError(est_rows, actual_rows); 0 when the node carried no
  /// estimate (est_rows == 0, e.g. plans never cost-annotated).
  double qerror = 0.0;
  /// Inclusive wall time of the operator's subtree (open + next), seconds.
  double inclusive_seconds = 0.0;
  /// Inclusive UDF invocations of the operator's subtree, counted on the
  /// executing thread (exec::OperatorStats::udf_invocations), so exact
  /// under concurrent sessions.
  uint64_t udf_invocations = 0;
};

/// Process-wide bounded ring of OperatorAuditRecords, the backing store of
/// the ppp_operator_audit system table. On by default; PPP_PLAN_AUDIT=0
/// disables the audit walk (and with it the per-query q-error feed).
/// Thread-safe with the same contract as QueryLog: appended by whichever
/// thread closes an executor, snapshotted by concurrent introspection scans.
class PlanAudit {
 public:
  /// Rings hold operators, not queries; a 16-operator plan still leaves
  /// room for hundreds of recent queries at this default.
  static constexpr size_t kDefaultCapacity = 8192;

  /// The ring every executor records into. Standalone instances are legal
  /// (tests build private rings); the engine only touches Global().
  static PlanAudit& Global();

  PlanAudit();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Appends one record; past capacity the oldest record is overwritten
  /// (counted in evicted()). No-op while disabled.
  void Append(OperatorAuditRecord record) {
    if (enabled()) ring_.Append(std::move(record));
  }

  /// All retained records, oldest first.
  std::vector<OperatorAuditRecord> Snapshot() const {
    return ring_.Snapshot();
  }

  /// The most recent `n` records, oldest first.
  std::vector<OperatorAuditRecord> Tail(size_t n) const {
    return ring_.Tail(n);
  }

  size_t size() const { return ring_.size(); }
  /// Records ever appended (including since-evicted ones).
  uint64_t total() const { return ring_.total(); }
  /// Records overwritten by ring wraparound.
  uint64_t evicted() const { return ring_.evicted(); }

  /// Shrinks or grows the ring; shrinking keeps the newest records.
  void set_capacity(size_t n) { ring_.set_capacity(n); }
  size_t capacity() const { return ring_.capacity(); }

  /// Drops all retained records and zeroes total/evicted.
  void Clear() { ring_.Clear(); }

 private:
  std::atomic<bool> enabled_;
  BoundedRing<OperatorAuditRecord> ring_{kDefaultCapacity};
};

}  // namespace ppp::obs

#endif  // PPP_OBS_PLAN_AUDIT_H_

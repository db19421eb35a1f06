#ifndef PPP_OBS_PLAN_HISTORY_H_
#define PPP_OBS_PLAN_HISTORY_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

namespace ppp::obs {

/// Aggregated execution history of one plan of one normalized query:
/// (text_hash, plan_fingerprint) is the key, everything else accumulates
/// across that plan's executions. The backing row of ppp_plan_history.
struct PlanHistoryEntry {
  uint64_t text_hash = 0;
  uint64_t plan_fingerprint = 0;
  uint64_t executions = 0;
  double wall_mean = 0.0;  ///< Mean wall seconds over all executions.
  /// Nearest-rank p95 over the most recent kWallSamples walls (exact until
  /// the per-entry sample ring wraps).
  double wall_p95 = 0.0;
  uint64_t total_invocations = 0;  ///< Summed UDF invocations.
  double max_qerror = 0.0;  ///< Worst per-operator q-error ever audited.
  uint64_t first_query_id = 0;
  uint64_t last_query_id = 0;
  /// True when this plan displaced a different fingerprint for the same
  /// text_hash (a plan change — typically after ANALYZE or calibration).
  bool plan_changed = false;
  /// True once this plan was flagged measurably slower than the plan it
  /// displaced (see PlanHistory regression detection).
  bool regressed = false;
};

/// What one Record() call concluded, for the query-log flags and the
/// plan.changed / plan.regressed counters. Both flags fire on transitions
/// only: plan_changed on the execution where the fingerprint flipped,
/// plan_regressed on the execution where the slowdown was first established.
struct PlanOutcome {
  bool plan_changed = false;
  bool plan_regressed = false;
  /// Established mean of the displaced plan when plan_regressed fired
  /// (diagnostic; 0 otherwise).
  double prior_wall_mean = 0.0;
};

/// Per-query-hash plan execution history with plan-change and regression
/// detection — the estimate→execution feedback signal the serving layer's
/// plan cache will consume for invalidation.
///
/// Detection rules:
///  * plan change: a Record() whose fingerprint differs from the same
///    text_hash's previous fingerprint (including flips back to a plan
///    seen before).
///  * plan regression: a changed-to plan whose mean wall time, once both it
///    and the plan it displaced have >= kWarmupExecutions executions,
///    exceeds the displaced plan's mean by more than kRegressionFactor.
///    Flagged once per (plan, displacement); a faster new plan never flags.
///
/// Bounded: beyond max_entries the entry with the oldest last_query_id is
/// evicted (ties: the smaller internal key), found through an ordered
/// (last_query_id, key) index so eviction is O(log n). Thread-safe under
/// one mutex; Record() runs once per executed statement (serve::Session),
/// never on per-tuple paths.
class PlanHistory {
 public:
  static constexpr size_t kDefaultMaxEntries = 1024;
  /// Wall samples retained per entry for the p95 (ring, newest wins).
  static constexpr size_t kWallSamples = 128;
  /// Executions either plan needs before a mean is "established" and the
  /// regression check may fire.
  static constexpr uint64_t kWarmupExecutions = 3;
  /// Mean-wall ratio (new / displaced) above which a changed-to plan is
  /// flagged regressed.
  static constexpr double kRegressionFactor = 1.5;

  /// The history every session records into. Standalone instances are
  /// legal (tests build private ones); the engine only touches Global().
  /// PPP_PLAN_HISTORY=0 starts it disabled (the kill-switch).
  static PlanHistory& Global();

  PlanHistory();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  void set_max_entries(size_t n) { max_entries_ = n == 0 ? 1 : n; }
  size_t max_entries() const { return max_entries_; }

  /// Folds one execution into the (text_hash, fingerprint) entry and runs
  /// the change/regression detection. No-op (all-false outcome) while
  /// disabled or when text_hash is 0 (callers without query-log hints).
  PlanOutcome Record(uint64_t text_hash, uint64_t plan_fingerprint,
                     double wall_seconds, uint64_t udf_invocations,
                     double max_qerror, uint64_t query_id);

  /// All entries ordered by first_query_id (stable discovery order), with
  /// wall_mean / wall_p95 computed.
  std::vector<PlanHistoryEntry> Snapshot() const;

  /// Distinct plans recorded for `text_hash` (0 when unseen).
  size_t PlansFor(uint64_t text_hash) const;

  /// True when the (text_hash, fingerprint) plan has been flagged
  /// regressed. Plan caches consult this on probe so a regression verdict
  /// retires the cached plan instead of replaying it forever.
  bool Regressed(uint64_t text_hash, uint64_t fingerprint) const;

  size_t size() const;
  uint64_t changed_total() const {
    return changed_total_.load(std::memory_order_relaxed);
  }
  uint64_t regressed_total() const {
    return regressed_total_.load(std::memory_order_relaxed);
  }

  /// Drops every entry and zeroes the change/regression totals.
  void Clear();

 private:
  struct Entry {
    PlanHistoryEntry row;
    double wall_sum = 0.0;
    /// Most recent walls, ring-ordered; row.wall_p95 derives from these.
    std::vector<double> walls;
    size_t wall_next = 0;
    /// Fingerprint this plan displaced at its most recent change; 0 when
    /// this plan never displaced another.
    uint64_t displaced_fingerprint = 0;
  };

  static uint64_t Key(uint64_t text_hash, uint64_t fingerprint);
  void EvictOldestLocked();
  static double P95Locked(const Entry& entry);

  std::atomic<bool> enabled_{true};
  std::atomic<uint64_t> changed_total_{0};
  std::atomic<uint64_t> regressed_total_{0};
  size_t max_entries_ = kDefaultMaxEntries;

  mutable std::mutex mu_;
  /// Key(text_hash, fingerprint) -> entry.
  std::unordered_map<uint64_t, Entry> entries_;
  /// text_hash -> fingerprint of its most recently executed plan.
  std::unordered_map<uint64_t, uint64_t> current_plan_;
  /// (last_query_id, key) of every entry; begin() is the eviction victim.
  std::set<std::pair<uint64_t, uint64_t>> by_last_use_;
};

}  // namespace ppp::obs

#endif  // PPP_OBS_PLAN_HISTORY_H_

#ifndef PPP_OBS_PROFILER_H_
#define PPP_OBS_PROFILER_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

namespace ppp::obs {

/// Aggregated runtime observations for one expensive function, collected by
/// the expression evaluator as queries execute.
///
/// Two derived numbers matter for placement (the paper's §4 rank metric is
/// (selectivity - 1) / cost):
///   - observed cost: mean wall seconds per invocation, converted into the
///     cost model's random-I/O units via kSecondsPerIo;
///   - observed selectivity: pass fraction over *distinct* input bindings,
///     matching the §5.1 caching semantics in which each distinct value is
///     evaluated once regardless of how many tuples carry it.
struct PredicateProfile {
  std::string function;
  uint64_t invocations = 0;
  double wall_seconds = 0.0;
  /// Distinct input tuples seen / how many of them passed. Only populated
  /// for boolean (predicate) functions; has_selectivity is false otherwise.
  uint64_t distinct_inputs = 0;
  uint64_t distinct_passes = 0;
  bool has_selectivity = false;
  /// True when the distinct-input tracking set hit its cap and stopped
  /// admitting new values; the selectivity is then a (still unbiased-ish)
  /// estimate over the first values seen rather than an exact count.
  bool inputs_capped = false;

  double mean_seconds() const {
    return invocations > 0 ? wall_seconds / static_cast<double>(invocations)
                           : 0.0;
  }

  /// Mean per-invocation cost in the cost model's units (random I/Os).
  double ObservedCostIos(double seconds_per_io) const {
    return seconds_per_io > 0.0 ? mean_seconds() / seconds_per_io : 0.0;
  }

  double ObservedSelectivity(double fallback) const {
    if (!has_selectivity || distinct_inputs == 0) return fallback;
    return static_cast<double>(distinct_passes) /
           static_cast<double>(distinct_inputs);
  }
};

/// Aggregated observations for one predicate-transfer site (a transferred
/// Bloom filter identified by its "probe.col <- build.col" label),
/// accumulated across every query that ran the transfer.
struct TransferProfile {
  std::string site;
  uint64_t queries = 0;
  uint64_t probed = 0;
  uint64_t passed = 0;
  /// Queries in which the runtime kill switch disabled the filter.
  uint64_t kills = 0;
  /// Most recent measured false-positive rate; < 0 when never observed.
  double last_fpr = -1.0;

  double PassRate() const {
    return probed > 0
               ? static_cast<double>(passed) / static_cast<double>(probed)
               : 1.0;
  }
};

/// True when the observed rank disagrees with the estimated rank by more
/// than `threshold`, measured as relative difference |obs - est| over the
/// larger magnitude (ranks are negative; a sign flip always exceeds any
/// threshold < 2).
bool RankDriftExceeds(double est_rank, double obs_rank, double threshold);

/// Process-wide collector of per-function runtime profiles. The evaluator
/// calls Record() for every user-function invocation; EXPLAIN ANALYZE and
/// the feedback store read the aggregates back.
///
/// On by default: the per-invocation overhead is a clock read and a map
/// update, negligible next to an expensive predicate's own work (and the
/// functions recorded here are exactly the ones worth profiling).
class PredicateProfiler {
 public:
  static PredicateProfiler& Global();

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Seconds of wall time equal to one unit of cost-model random I/O; used
  /// to convert observed wall cost into catalog cost units. 1e-4 (100us)
  /// matches a commodity-disk random read.
  static constexpr double kSecondsPerIo = 1e-4;

  /// Relative rank disagreement beyond which EXPLAIN ANALYZE prints DRIFT.
  double drift_threshold() const;
  void set_drift_threshold(double t);

  /// Records one invocation of `function` taking `seconds` of wall time.
  /// For boolean predicates, `input_key` is a serialized form of the
  /// argument tuple and `passed` the outcome; each distinct key contributes
  /// once to the distinct-selectivity counts. Pass nullopt for non-boolean
  /// functions.
  void Record(const std::string& function, double seconds,
              const std::string& input_key, std::optional<bool> passed);

  std::optional<PredicateProfile> Get(const std::string& function) const;
  std::vector<PredicateProfile> Snapshot() const;

  /// Records one query's worth of counters for a transfer site (called by
  /// ExecutePlan at end of query, so the cross-query aggregates here stay
  /// in step with the per-function profiles above).
  void RecordTransfer(const std::string& site, uint64_t probed,
                      uint64_t passed, bool killed, double measured_fpr);
  std::vector<TransferProfile> TransferSnapshot() const;

  /// The cross-query aggregate for one transfer site (nullopt when the
  /// site was never recorded). The executor's cross-query kill memory
  /// consults this before building a Bloom filter.
  std::optional<TransferProfile> GetTransfer(const std::string& site) const;

  /// Human-readable table of every profiled function (the shell's \profile).
  std::string ReportText() const;

  void Reset();

 private:
  PredicateProfiler() = default;

  struct Entry {
    uint64_t invocations = 0;
    double wall_seconds = 0.0;
    std::unordered_set<std::string> seen;
    uint64_t distinct_inputs = 0;
    uint64_t distinct_passes = 0;
    bool has_selectivity = false;
    bool inputs_capped = false;
  };

  PredicateProfile ToProfile(const std::string& name, const Entry& e) const;

  bool enabled_ = true;
  mutable std::mutex mu_;
  double drift_threshold_ = 0.5;
  std::map<std::string, Entry> entries_;
  std::map<std::string, TransferProfile> transfers_;

  /// Cap on distinct input keys remembered per function (memory bound).
  static constexpr size_t kMaxDistinctInputs = 65536;
};

/// One calibrated estimate the optimizer can consume in place of the static
/// catalog numbers. Cost is in the cost model's random-I/O units.
struct FeedbackEntry {
  double cost_per_call = 0.0;
  double selectivity = 0.5;
  bool has_selectivity = false;
  uint64_t samples = 0;
};

/// Observed cost/selectivity per function, fed from PredicateProfiler by
/// AbsorbProfiles() (the \calibrate path) and consumed by PredicateAnalyzer
/// when CostParams::use_feedback is set.
class PredicateFeedbackStore {
 public:
  static PredicateFeedbackStore& Global();

  void Update(const std::string& function, const FeedbackEntry& entry);
  std::optional<FeedbackEntry> Lookup(const std::string& function) const;

  /// Converts every profile with at least `min_invocations` recorded calls
  /// into a feedback entry. Returns how many functions were calibrated.
  size_t AbsorbProfiles(const PredicateProfiler& profiler,
                        uint64_t min_invocations = 1);

  void Clear();
  size_t size() const;

 private:
  PredicateFeedbackStore() = default;

  mutable std::mutex mu_;
  std::map<std::string, FeedbackEntry> entries_;
};

}  // namespace ppp::obs

#endif  // PPP_OBS_PROFILER_H_

#ifndef PPP_WORKLOAD_MEASUREMENT_H_
#define PPP_WORKLOAD_MEASUREMENT_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "cost/cost_params.h"
#include "exec/executor.h"
#include "obs/trace.h"
#include "optimizer/algorithm.h"
#include "plan/query_spec.h"
#include "serve/session.h"
#include "storage/io_stats.h"
#include "workload/database.h"

namespace ppp::workload {

/// One EXPLAIN [ANALYZE] of a query under one placement algorithm,
/// measured the way the paper measures (§2): physical I/O counts plus
/// `invocations × declared cost` per expensive function, all in random-I/O
/// units. Numbers are relative, never wall-clock.
struct Measurement {
  std::string algorithm;
  double est_cost = 0.0;       // Optimizer's estimate.
  double charged_time = 0.0;   // Measured relative time.
  double charged_io = 0.0;     // I/O share of charged_time.
  double charged_udf = 0.0;    // Function share of charged_time.
  uint64_t output_rows = 0;
  std::unordered_map<std::string, uint64_t> invocations;
  /// Normalize, parse, bind and optimize.
  double optimize_seconds = 0.0;
  size_t plans_retained = 0;
  std::string plan_text;
  /// Raw I/O classes of the run (the counters charged_io derives from).
  storage::IoStats io;
  /// DP enumeration counters of the optimize step.
  optimizer::DpStats dp_stats;
  /// The statement's EXPLAIN [ANALYZE] rendering.
  std::string explain_text;
  /// Wall-clock of the execute phase. Diagnostic only (the parallel bench
  /// reports speedups from it); charged_time stays the paper's currency.
  double wall_seconds = 0.0;

  std::string Summary() const;

  /// One JSON object with every field above (invocations as a nested
  /// object); the unit benches aggregate into BENCH_<name>.json.
  std::string ToJson() const;
};

/// Writes `measurements` as a JSON array to BENCH_<name>.json in the
/// current directory. Returns the path written.
common::Result<std::string> WriteBenchJson(
    const std::string& name, const std::vector<Measurement>& measurements);

/// Converts executor stats into charged relative time under `params`.
double ChargedTime(const exec::ExecStats& stats,
                   const catalog::FunctionRegistry& functions,
                   const cost::CostParams& params, double* io_part,
                   double* udf_part);

/// Runs `sql` — `EXPLAIN <select>` to optimize only, `EXPLAIN ANALYZE
/// <select>` to also execute — on `session`, under its algorithm and knobs,
/// and measures it. Before an EXPLAIN ANALYZE the pool of `db` (the
/// session's database) is flushed and evicted: a cold start, as the paper's
/// one-query-at-a-time measurements imply. `trace`, when non-null,
/// receives the optimizer's decisions.
common::Result<Measurement> Measure(Database* db, serve::Session* session,
                                    const std::string& sql,
                                    obs::OptTrace* trace = nullptr);

/// Result of re-running predicate placement with observed (profiled)
/// costs and selectivities in place of the catalog's static guesses.
struct CalibrationReport {
  /// Functions whose profiles were absorbed into the feedback store.
  size_t functions_calibrated = 0;
  /// Whether the calibrated plan differs from the uncalibrated one.
  bool placement_changed = false;
  /// The uncalibrated plan's cost under the *static* model (the number the
  /// optimizer originally believed).
  double est_cost_before = 0.0;
  /// The uncalibrated plan's cost re-annotated under the observed model:
  /// what that placement actually costs per the profile data.
  double obs_cost_before = 0.0;
  /// The calibrated plan's cost under the observed model.
  double obs_cost_after = 0.0;
  /// Placement regret: obs_cost_before - obs_cost_after. How much the
  /// static estimates were costing us, in random-I/O units.
  double regret = 0.0;
  std::string plan_before;
  std::string plan_after;

  std::string Summary() const;
};

/// Re-runs placement of `spec` with observed costs/selectivities: absorbs
/// the global PredicateProfiler's data into the PredicateFeedbackStore,
/// optimizes once without and once with feedback, and re-costs the
/// uncalibrated plan under the observed model to quantify the regret.
/// The feedback store retains the absorbed profiles afterwards, so
/// subsequent optimizations with CostParams::use_feedback see them.
common::Result<CalibrationReport> Calibrate(
    catalog::Catalog* catalog, const plan::QuerySpec& spec,
    optimizer::Algorithm algorithm, const cost::CostParams& cost_params);

/// Canonical form of a result set (sorted serialized tuples), for
/// cross-algorithm equivalence checks.
std::vector<std::string> CanonicalResults(
    const std::vector<types::Tuple>& rows);

/// Schema-aware canonical form: reorders each row's values into ascending
/// qualified-column-name order before serializing, so plans with different
/// join orders (hence different output column orders) compare equal.
std::vector<std::string> CanonicalResults(
    const std::vector<types::Tuple>& rows, const types::RowSchema& schema);

}  // namespace ppp::workload

#endif  // PPP_WORKLOAD_MEASUREMENT_H_

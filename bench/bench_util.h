#ifndef PPP_BENCH_BENCH_UTIL_H_
#define PPP_BENCH_BENCH_UTIL_H_

#include <memory>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "optimizer/algorithm.h"
#include "workload/database.h"
#include "workload/measurement.h"
#include "workload/queries.h"
#include "workload/schema_gen.h"

namespace ppp::bench {

/// All placement algorithms, in the paper's Table 1 order (plus the
/// bushy-tree LDL extension).
extern const optimizer::Algorithm kAllAlgorithms[7];

/// The benchmark scale: |tK| = K * scale. Overridable with the PPP_SCALE
/// environment variable; the paper's own scale is 10 000 (≈110 MB).
int64_t BenchScale(int64_t default_scale = 400);

/// Builds and loads the benchmark database at `scale` with all six tables
/// the queries need. Aborts on failure (benches have no error path).
std::unique_ptr<workload::Database> MakeBenchDatabase(
    int64_t scale, const std::vector<int>& tables = {1, 3, 6, 7, 9, 10});

/// Runs `EXPLAIN ANALYZE` of `id` (Q1..Q5) under `algorithm` on a
/// throwaway session over `db` and returns the measurement. Aborts on
/// failure. `trace`, when non-null, records the optimizer's decisions for
/// that run (observability only; charged time is unchanged). Never call it
/// while another SessionManager serves `db`: a second manager takes over
/// the ppp_plan_cache / ppp_sessions tables and empties them on exit.
workload::Measurement RunQuery(workload::Database* db,
                               const workload::BenchmarkConfig& config,
                               const std::string& id,
                               optimizer::Algorithm algorithm,
                               cost::CostParams cost_params = {},
                               obs::OptTrace* trace = nullptr);

/// True when PPP_TRACE is set to a non-empty value other than "0":
/// benches then print optimizer traces and DP statistics.
bool TraceEnabled();

/// Writes BENCH_<name>.json via workload::WriteBenchJson and prints the
/// path. Disable with PPP_BENCH_JSON=0.
void MaybeWriteBenchJson(const std::string& name,
                         const std::vector<workload::Measurement>& bars);

/// Prints per-algorithm DP enumeration statistics (subplans generated,
/// pruned, retained, ...) gathered during optimization.
void PrintDpStats(const std::vector<workload::Measurement>& bars);

/// Prints a separator + title.
void PrintHeader(const std::string& title);

/// Prints one figure-style row: algorithm, measured relative time, and the
/// ratio to the best in the batch (the paper's bar charts are exactly
/// these ratios).
void PrintFigure(const std::string& caption,
                 const std::vector<workload::Measurement>& bars);

}  // namespace ppp::bench

#endif  // PPP_BENCH_BENCH_UTIL_H_

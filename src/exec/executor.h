#ifndef PPP_EXEC_EXECUTOR_H_
#define PPP_EXEC_EXECUTOR_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "exec/operator.h"
#include "obs/stats_tier.h"
#include "plan/plan_node.h"
#include "storage/io_stats.h"

namespace ppp::exec {

/// Compiles a physical plan into an operator tree. The plan must be
/// executable: joins with methods whose requirements hold (e.g. merge/hash
/// need a simple equi-join primary; index nested loops needs a bare scan
/// inner with an index on the join column).
common::Result<std::unique_ptr<Operator>> BuildExecutor(
    const plan::PlanNode& plan, ExecContext* ctx);

/// The weakest provenance any predicate estimate in the tree rests on
/// (selectivity or cost): one declared-only guess taints the whole plan.
/// Predicate-free plans report declared — nothing was estimated at all.
/// Plan-invariant, so callers that reuse a plan compute it once.
obs::StatsTier WeakestStatsTier(const plan::PlanNode& plan);

/// What one execution cost, in the paper's measurement currency: physical
/// page I/O (the delta of the calling thread's storage::ThreadIo()) plus
/// per-function invocation counts.
/// The harness converts these to "charged time" with the function costs,
/// exactly as §2 describes.
struct ExecStats {
  uint64_t output_rows = 0;
  storage::IoStats io;
  std::unordered_map<std::string, uint64_t> invocations;
  /// Hits this execution took from the context's function cache (the
  /// kFunction memo persists across executions on one context).
  uint64_t function_cache_hits = 0;
};

/// Executes `plan` to completion, returning all output tuples. I/O deltas
/// are measured against the catalog's buffer pool; invocation counts come
/// from ctx->eval. `out_schema`, when non-null, receives the output row
/// descriptor (plans with different join orders emit columns in different
/// orders; compare results with CanonicalResults + schema). `root_out`,
/// when non-null, receives the executed operator tree so the caller can
/// inspect per-operator stats (EXPLAIN ANALYZE, the plan audit).
///
/// Execution only: the statement's telemetry (query id, ppp_query_log
/// record, plan audit, plan history) belongs to serve::Session, which
/// drives each statement. A direct call — a nested subquery execution, a
/// bench or test — writes no record, and its spans carry whatever query id
/// the calling thread's QueryIdScope holds.
common::Result<std::vector<types::Tuple>> ExecutePlan(
    const plan::PlanNode& plan, ExecContext* ctx, ExecStats* stats,
    types::RowSchema* out_schema = nullptr,
    std::unique_ptr<Operator>* root_out = nullptr);

}  // namespace ppp::exec

#endif  // PPP_EXEC_EXECUTOR_H_

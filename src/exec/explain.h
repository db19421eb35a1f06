#ifndef PPP_EXEC_EXPLAIN_H_
#define PPP_EXEC_EXPLAIN_H_

#include <optional>
#include <string>

#include "catalog/function_registry.h"
#include "exec/operator.h"
#include "plan/plan_node.h"

namespace ppp::exec {

/// EXPLAIN: the annotated plan tree (optimizer estimates only).
std::string RenderExplain(const plan::PlanNode& plan);

/// EXPLAIN ANALYZE: the plan tree with each node's estimates followed by
/// the executed operator's actuals — rows, Open()/NextBatch() wall time,
/// the node's *self* I/O (its subtree-inclusive pool delta minus its
/// children's), and predicate-cache counters where one exists.
///
/// `root` must be the operator tree ExecutePlan built for `plan`. The two
/// trees correspond 1:1 except under an index nested-loop join, whose
/// inner plan child has no operator and is rendered estimates-only.
///
/// When `functions` is supplied, nodes carrying an expensive predicate
/// whose UDFs have runtime profiles additionally render
/// `[rank est=… obs=…]`, with a DRIFT flag when the observed rank
/// (from PredicateProfiler's observed cost and distinct-value selectivity)
/// disagrees with the catalog-estimated rank beyond the profiler's drift
/// threshold.
std::string RenderExplainAnalyze(const plan::PlanNode& plan,
                                 const Operator& root,
                                 const catalog::FunctionRegistry* functions =
                                     nullptr);

/// Estimated vs observed rank of one node's predicate, computed from the
/// PredicateProfiler the way EXPLAIN ANALYZE renders it. Empty when the
/// node has no expensive predicate or none of its UDFs has a profile yet.
struct RankDriftInfo {
  double est_rank = 0.0;
  double obs_rank = 0.0;
  bool drift = false;  ///< Past the profiler's drift threshold.
};
std::optional<RankDriftInfo> ComputeRankDrift(
    const plan::PlanNode& plan, const catalog::FunctionRegistry& functions);

/// Number of predicates in the whole plan tree currently flagged DRIFT —
/// the query log's drift_flags column.
uint64_t CountDriftingPredicates(const plan::PlanNode& plan,
                                 const catalog::FunctionRegistry& functions);

}  // namespace ppp::exec

#endif  // PPP_EXEC_EXPLAIN_H_

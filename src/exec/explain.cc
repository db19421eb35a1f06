#include "exec/explain.h"

#include <algorithm>

#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/plan_audit.h"
#include "obs/profiler.h"

namespace ppp::exec {

namespace {

uint64_t ClampedMinus(uint64_t a, uint64_t b) { return a > b ? a - b : 0; }

/// The operator's own I/O: its inclusive subtree delta minus its
/// children's inclusive deltas (child calls nest inside the parent's).
storage::IoStats SelfIo(const Operator& op) {
  storage::IoStats self = op.stats().io;
  for (const Operator* child : op.Children()) {
    const storage::IoStats& sub = child->stats().io;
    self.sequential_reads =
        ClampedMinus(self.sequential_reads, sub.sequential_reads);
    self.random_reads = ClampedMinus(self.random_reads, sub.random_reads);
    self.writes = ClampedMinus(self.writes, sub.writes);
    self.buffer_hits = ClampedMinus(self.buffer_hits, sub.buffer_hits);
  }
  return self;
}

void AppendActuals(const Operator& op, std::string* out) {
  const OperatorStats& stats = op.stats();
  const storage::IoStats self = SelfIo(op);
  out->append(common::StringPrintf(
      " (actual rows=%llu opens=%llu time=%.3fms io seq=%llu rand=%llu "
      "hit=%llu)",
      static_cast<unsigned long long>(stats.rows_out),
      static_cast<unsigned long long>(stats.opens),
      (stats.open_seconds + stats.next_seconds) * 1e3,
      static_cast<unsigned long long>(self.sequential_reads),
      static_cast<unsigned long long>(self.random_reads),
      static_cast<unsigned long long>(self.buffer_hits)));
  if (stats.has_cache) {
    out->append(common::StringPrintf(
        " [cache %s hits=%llu entries=%llu evictions=%llu]",
        stats.cache_enabled ? "on" : "off",
        static_cast<unsigned long long>(stats.cache_hits),
        static_cast<unsigned long long>(stats.cache_entries),
        static_cast<unsigned long long>(stats.cache_evictions)));
  }
  if (stats.has_transfer) {
    std::string fpr = "-";
    if (stats.transfer_fpr >= 0.0) {
      fpr = common::StringPrintf("%.4f", stats.transfer_fpr);
    }
    out->append(common::StringPrintf(
        " [bloom probed=%llu passed=%llu fpr=%s%s]",
        static_cast<unsigned long long>(stats.transfer_probed),
        static_cast<unsigned long long>(stats.transfer_passed), fpr.c_str(),
        stats.transfer_killed ? " KILLED" : ""));
  }
}

/// Estimated vs observed rank for the node's predicate, when at least one
/// of its UDFs has a runtime profile (see ComputeRankDrift).
void AppendRankDrift(const plan::PlanNode& plan,
                     const catalog::FunctionRegistry& functions,
                     std::string* out) {
  const std::optional<RankDriftInfo> info =
      ComputeRankDrift(plan, functions);
  if (!info.has_value()) return;  // No runtime data: the line stays clean.
  out->append(common::StringPrintf(
      " [rank est=%.4g sel~%s cost~%s obs=%.4g%s]", info->est_rank,
      expr::StatSourceName(plan.predicate.selectivity_source),
      expr::StatSourceName(plan.predicate.cost_source), info->obs_rank,
      info->drift ? " DRIFT" : ""));
}

/// Renders `plan` at `indent`, pairing it with `op` when the operator tree
/// has a node for it (nullptr = estimates only, e.g. the probed inner
/// relation of an index nested-loop join).
void AppendNode(const plan::PlanNode& plan, const Operator* op, int indent,
                const catalog::FunctionRegistry* functions,
                std::string* out) {
  out->append(static_cast<size_t>(indent) * 2, ' ');
  out->append(plan.LineString());
  if (op != nullptr) AppendActuals(*op, out);
  if (op != nullptr && functions != nullptr) {
    AppendRankDrift(plan, *functions, out);
  }
  if (op != nullptr && plan.est_rows > 0.0) {
    // Per-node cardinality audit: estimate vs actual with the q-error
    // (1.0 = perfect). The stats.estimation.qerror histogram is fed by the
    // executor's close-time audit walk for *every* query, so this line only
    // renders; it no longer double-feeds the histogram.
    out->append(common::StringPrintf(
        " [card est=%.4g act=%llu q=%.3g]", plan.est_rows,
        static_cast<unsigned long long>(op->stats().rows_out),
        obs::CardinalityQError(plan.est_rows, op->stats().rows_out)));
  }
  out->append("\n");

  std::vector<const Operator*> op_children =
      op != nullptr ? op->Children() : std::vector<const Operator*>{};
  for (size_t i = 0; i < plan.children.size(); ++i) {
    const Operator* child_op = i < op_children.size() ? op_children[i]
                                                      : nullptr;
    AppendNode(*plan.children[i], child_op, indent + 1, functions, out);
  }
}

}  // namespace

std::string RenderExplain(const plan::PlanNode& plan) {
  return plan.ToString();
}

std::optional<RankDriftInfo> ComputeRankDrift(
    const plan::PlanNode& plan, const catalog::FunctionRegistry& functions) {
  const expr::PredicateInfo& pred = plan.predicate;
  if (pred.expr == nullptr || !pred.is_expensive()) return std::nullopt;

  // Observed cost replaces the declared cost of every profiled function;
  // observed selectivity rescales the estimate by the profiled functions'
  // pass-rate ratio (non-profiled factors keep their catalog estimates).
  std::vector<const expr::Expr*> calls;
  pred.expr->CollectFunctionCalls(&calls);
  const obs::PredicateProfiler& profiler = obs::PredicateProfiler::Global();

  bool any_profiled = false;
  double obs_cost = 0.0;
  double sel_ratio = 1.0;
  for (const expr::Expr* call : calls) {
    const auto def = functions.Lookup(call->function_name);
    const double def_cost = def.ok() ? (*def)->cost_per_call : 0.0;
    const std::optional<obs::PredicateProfile> profile =
        profiler.Get(call->function_name);
    if (!profile.has_value()) {
      obs_cost += def_cost;
      continue;
    }
    any_profiled = true;
    obs_cost +=
        profile->ObservedCostIos(obs::PredicateProfiler::kSecondsPerIo);
    if (def.ok() && profile->has_selectivity &&
        (*def)->return_type == types::TypeId::kBool &&
        (*def)->selectivity > 0.0) {
      sel_ratio *= profile->ObservedSelectivity((*def)->selectivity) /
                   (*def)->selectivity;
    }
  }
  if (!any_profiled) return std::nullopt;

  RankDriftInfo info;
  info.est_rank = pred.rank();
  const double obs_sel = std::clamp(pred.selectivity * sel_ratio, 0.0, 1.0);
  info.obs_rank =
      obs_cost > 0.0 ? (obs_sel - 1.0) / obs_cost : info.est_rank;
  info.drift = obs::RankDriftExceeds(info.est_rank, info.obs_rank,
                                     profiler.drift_threshold());
  return info;
}

uint64_t CountDriftingPredicates(
    const plan::PlanNode& plan, const catalog::FunctionRegistry& functions) {
  const std::optional<RankDriftInfo> info =
      ComputeRankDrift(plan, functions);
  uint64_t count = info.has_value() && info->drift ? 1 : 0;
  for (const std::unique_ptr<plan::PlanNode>& child : plan.children) {
    count += CountDriftingPredicates(*child, functions);
  }
  return count;
}

std::string RenderExplainAnalyze(const plan::PlanNode& plan,
                                 const Operator& root,
                                 const catalog::FunctionRegistry* functions) {
  std::string out;
  AppendNode(plan, &root, 0, functions, &out);
  return out;
}

}  // namespace ppp::exec

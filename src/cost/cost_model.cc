#include "cost/cost_model.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "storage/page.h"

namespace ppp::cost {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Qualified join column of `join`'s child on `side`, or "" when the
/// primary predicate is not a simple equi-join (or absent).
std::string JoinColumnOnSide(const plan::PlanNode& join, int side) {
  const expr::PredicateInfo& pred = join.predicate;
  if (!pred.is_simple_equijoin) return "";
  const std::vector<std::string> aliases =
      join.children[static_cast<size_t>(side)]->CollectAliases();
  for (const std::string& alias : aliases) {
    if (alias == pred.left_table) {
      return pred.left_table + "." + pred.left_column;
    }
    if (alias == pred.right_table) {
      return pred.right_table + "." + pred.right_column;
    }
  }
  return "";
}

/// Distinct count of the join column on `side` of the equi-join, 0 if
/// unknown. `*base_alias` receives the owning range variable.
int64_t JoinDistinctOnSide(const plan::PlanNode& join, int side,
                           std::string* base_alias) {
  const expr::PredicateInfo& pred = join.predicate;
  if (!pred.is_simple_equijoin) return 0;
  const std::vector<std::string> aliases =
      join.children[static_cast<size_t>(side)]->CollectAliases();
  for (const std::string& alias : aliases) {
    if (alias == pred.left_table) {
      if (base_alias != nullptr) *base_alias = alias;
      return pred.left_distinct;
    }
    if (alias == pred.right_table) {
      if (base_alias != nullptr) *base_alias = alias;
      return pred.right_distinct;
    }
  }
  return 0;
}

}  // namespace

double CostModel::PagesFor(double rows, double width) {
  if (rows <= 0) return 0.0;
  return std::max(1.0, std::ceil(rows * width / storage::kPageSize));
}

double CostModel::DistinctInStream(double distinct, double rows,
                                   double base_rows) {
  if (distinct <= 0) return rows;  // No statistics: assume all-new values.
  if (rows <= 0) return 0.0;
  if (base_rows <= 0 || rows >= base_rows) return distinct;
  const double missing_frac = 1.0 - rows / base_rows;
  const double rows_per_value = base_rows / distinct;
  return distinct * (1.0 - std::pow(missing_frac, rows_per_value));
}

double CostModel::SortCost(double pages) const {
  if (pages <= params_.buffer_pages) return 0.0;  // In-memory sort.
  const double runs = std::ceil(pages / params_.buffer_pages);
  const double passes =
      std::max(1.0, std::ceil(std::log(runs) / std::log(params_.sort_fanout)));
  // Each pass writes and re-reads every page.
  return 2.0 * pages * passes * params_.seq_page_io;
}

common::Result<const catalog::Table*> CostModel::ResolveTable(
    const std::string& alias) const {
  auto it = binding_.find(alias);
  if (it == binding_.end() || it->second == nullptr) {
    return common::Status::NotFound("alias " + alias +
                                    " is not bound to a table");
  }
  return it->second;
}

double CostModel::RescanCost(const plan::PlanNode& inner) const {
  const double io = inner.est_cost - inner.est_udf_cost;
  // Re-running the inner pipeline repeats expensive predicate evaluations
  // unless the predicate cache absorbs them (paper §5.1 / footnote 4).
  const double udf = params_.predicate_caching ? 0.0 : inner.est_udf_cost;
  return io + udf;
}

double CostModel::JoinExtraCost(const plan::PlanNode& join, double outer_rows,
                                double inner_rows) const {
  const plan::PlanNode& outer = *join.children[0];
  const plan::PlanNode& inner = *join.children[1];
  const expr::PredicateInfo& pred = join.predicate;
  const double s = pred.expr != nullptr ? pred.selectivity : 1.0;

  double io = 0.0;
  double udf = 0.0;

  switch (join.join_method) {
    case plan::JoinMethod::kNestLoop: {
      // Pipelined nested loops: the inner subtree is re-executed once per
      // outer tuple beyond the first. Its page count does not shrink when
      // expensive selections are pulled up, which is exactly why nested
      // loops fit the linear model (§3.2).
      const double rescans = std::max(0.0, outer_rows - 1.0);
      io += rescans * (inner.est_cost - inner.est_udf_cost);
      if (!params_.predicate_caching) {
        udf += rescans * inner.est_udf_cost;
      }
      if (pred.expr != nullptr && pred.is_expensive()) {
        // Expensive primary join predicate: c_p {R}{S} (§3.2).
        double evals = outer_rows * inner_rows;
        if (params_.predicate_caching && pred.input_distinct_values > 0) {
          evals = std::min(
              evals,
              DistinctInStream(
                  static_cast<double>(pred.input_distinct_values), evals,
                  pred.input_base_rows));
        }
        udf += evals * pred.cost_per_tuple;
      }
      break;
    }
    case plan::JoinMethod::kIndexNestLoop: {
      // Probe per outer tuple, then one random fetch per matching tuple.
      io += outer_rows * params_.index_probe_ios * params_.rand_page_io;
      io += outer_rows * inner_rows * s * params_.rand_page_io;
      break;
    }
    case plan::JoinMethod::kMerge: {
      const double outer_pages = PagesFor(outer_rows, outer.est_width);
      const double inner_pages = PagesFor(inner_rows, inner.est_width);
      const std::string outer_col = JoinColumnOnSide(join, 0);
      const std::string inner_col = JoinColumnOnSide(join, 1);
      if (!outer.est_order.has_value() || outer.est_order != outer_col) {
        io += SortCost(outer_pages);
      }
      if (!inner.est_order.has_value() || inner.est_order != inner_col) {
        io += SortCost(inner_pages);
      }
      break;
    }
    case plan::JoinMethod::kHash: {
      const double outer_pages = PagesFor(outer_rows, outer.est_width);
      const double inner_pages = PagesFor(inner_rows, inner.est_width);
      if (std::min(outer_pages, inner_pages) > params_.buffer_pages) {
        // Grace hash join: partition both sides to disk and re-read.
        io += 2.0 * (outer_pages + inner_pages) * params_.seq_page_io;
      }
      break;
    }
  }
  return io + udf;
}

bool CostModel::TransferApplies(const plan::PlanNode& join) const {
  return params_.predicate_transfer && join.kind == plan::PlanKind::kJoin &&
         join.join_method == plan::JoinMethod::kHash &&
         join.predicate.is_simple_equijoin && !join.predicate.is_expensive();
}

double CostModel::StreamSelectivity(const plan::PlanNode& join,
                                    int side) const {
  const plan::PlanNode& other = *join.children[static_cast<size_t>(1 - side)];
  const expr::PredicateInfo& pred = join.predicate;
  const double s = pred.expr != nullptr ? pred.selectivity : 1.0;
  const bool current = params_.current_cardinality_estimate;
  const double other_rows = current ? other.est_rows : other.est_rows_noexp;

  // Per-input selectivity (§3.2): sel over R = s * {S}. Under predicate
  // caching (§5.1) it is computed on values and bounded by 1. The "global"
  // model of [HS93a] uses the raw cross-product selectivity for both sides.
  if (!params_.per_input_selectivity) {
    return s;
  }
  if (params_.predicate_caching && pred.is_simple_equijoin) {
    std::string other_alias;
    const int64_t other_distinct =
        JoinDistinctOnSide(join, 1 - side, &other_alias);
    double values = other_rows;
    if (other_distinct > 0) {
      // Distinct values of the join column actually present in the other
      // input stream, which selections below may have reduced.
      double base_rows = 0.0;
      auto table = ResolveTable(other_alias);
      if (table.ok()) {
        base_rows = static_cast<double>((*table)->NumTuples());
      }
      values = std::min(values,
                        DistinctInStream(static_cast<double>(other_distinct),
                                         other_rows, base_rows));
    }
    return std::min(1.0, s * values);
  }
  return s * other_rows;
}

JoinStreamInfo CostModel::JoinStream(const plan::PlanNode& join,
                                     int side) const {
  PPP_CHECK(join.kind == plan::PlanKind::kJoin && join.children.size() == 2);
  const plan::PlanNode& self = *join.children[static_cast<size_t>(side)];

  const bool current = params_.current_cardinality_estimate;
  const double self_rows = current ? self.est_rows : self.est_rows_noexp;

  JoinStreamInfo info;
  info.selectivity = StreamSelectivity(join, side);

  // Under predicate transfer the probe (outer) input reaches the join
  // already pre-filtered by the build side's Bloom filter: the join's
  // probe-stream selectivity was spent at the scan, so the join itself is
  // selectivity-neutral for that stream. Its rank becomes >= 0, and no
  // expensive predicate (rank < 0) can profitably hoist above it —
  // post-transfer cardinalities keep UDFs below the transferring join.
  if (side == 0 && TransferApplies(join)) {
    info.selectivity = 1.0;
  }

  // Differential cost per tuple of this input, computed numerically from
  // the join's own cost function. The linear model guarantees this is
  // (nearly) constant in the perturbation size.
  const double outer_rows = current ? join.children[0]->est_rows
                                    : join.children[0]->est_rows_noexp;
  const double inner_rows = current ? join.children[1]->est_rows
                                    : join.children[1]->est_rows_noexp;
  const double base = JoinExtraCost(join, outer_rows, inner_rows);
  const double delta = std::max(1.0, self_rows * 0.01);
  double perturbed;
  if (side == 0) {
    perturbed = JoinExtraCost(join, outer_rows + delta, inner_rows);
  } else {
    perturbed = JoinExtraCost(join, outer_rows, inner_rows + delta);
  }
  info.cost_per_tuple = std::max(0.0, (perturbed - base) / delta);

  if (info.cost_per_tuple < 1e-12) {
    // A free operator has rank -inf if it filters (apply as early as
    // possible) and +inf if it expands (apply as late as possible).
    info.rank = info.selectivity < 1.0 ? -kInf : kInf;
  } else {
    info.rank = (info.selectivity - 1.0) / info.cost_per_tuple;
  }
  return info;
}

common::Status CostModel::Annotate(plan::PlanNode* node) const {
  for (std::unique_ptr<plan::PlanNode>& child : node->children) {
    PPP_RETURN_IF_ERROR(Annotate(child.get()));
  }

  switch (node->kind) {
    case plan::PlanKind::kSeqScan: {
      PPP_ASSIGN_OR_RETURN(const catalog::Table* table,
                           ResolveTable(node->alias));
      const double rows = static_cast<double>(table->NumTuples());
      const double pages = static_cast<double>(table->NumPages());
      node->est_rows = rows;
      node->est_rows_noexp = rows;
      node->est_width =
          rows > 0 ? pages * storage::kPageSize / rows : 100.0;
      node->est_cost = pages * params_.seq_page_io;
      node->est_udf_cost = 0.0;
      node->est_order = std::nullopt;
      break;
    }
    case plan::PlanKind::kIndexScan: {
      PPP_ASSIGN_OR_RETURN(const catalog::Table* table,
                           ResolveTable(node->alias));
      const double card = static_cast<double>(table->NumTuples());
      const double pages = static_cast<double>(table->NumPages());
      const double sel =
          node->predicate.expr != nullptr ? node->predicate.selectivity : 1.0;
      const double rows = card * sel;
      node->est_rows = rows;
      node->est_rows_noexp = rows;
      node->est_width = card > 0 ? pages * storage::kPageSize / card : 100.0;
      // One descent plus one unclustered fetch per matching tuple.
      node->est_cost = params_.index_probe_ios * params_.rand_page_io +
                       rows * params_.rand_page_io;
      node->est_udf_cost = 0.0;
      node->est_order = node->alias + "." + node->index_column;
      break;
    }
    case plan::PlanKind::kFilter: {
      const plan::PlanNode& child = *node->children[0];
      const expr::PredicateInfo& pred = node->predicate;
      double evals = child.est_rows;
      if (params_.predicate_caching && pred.input_distinct_values > 0) {
        evals = std::min(
            evals,
            DistinctInStream(static_cast<double>(pred.input_distinct_values),
                             child.est_rows, pred.input_base_rows));
      }
      // The executor fans expensive-predicate filters across
      // parallel_workers threads; the latency-bound UDF charge divides by
      // the effective parallelism. Cheap predicates and join primaries stay
      // serial (the executor does not parallelize them).
      const double effective_workers =
          pred.is_expensive() ? std::max(1, params_.parallel_workers) : 1;
      const double udf_charge =
          evals * pred.cost_per_tuple / effective_workers;
      node->est_rows = child.est_rows * pred.selectivity;
      node->est_rows_noexp = pred.is_expensive()
                                 ? child.est_rows_noexp
                                 : child.est_rows_noexp * pred.selectivity;
      node->est_width = child.est_width;
      node->est_cost = child.est_cost + udf_charge;
      node->est_udf_cost = child.est_udf_cost + udf_charge;
      node->est_order = child.est_order;
      break;
    }
    case plan::PlanKind::kJoin: {
      if (node->children.size() != 2) {
        return common::Status::Internal("join node must have two children");
      }
      const plan::PlanNode& outer = *node->children[0];
      const plan::PlanNode& inner = *node->children[1];
      const expr::PredicateInfo& pred = node->predicate;
      const double s = pred.expr != nullptr ? pred.selectivity : 1.0;
      const double extra =
          JoinExtraCost(*node, outer.est_rows, inner.est_rows);

      // The UDF share of `extra`: recompute the pieces JoinExtraCost
      // classifies as UDF work.
      double udf_extra = 0.0;
      if (node->join_method == plan::JoinMethod::kNestLoop) {
        const double rescans = std::max(0.0, outer.est_rows - 1.0);
        if (!params_.predicate_caching) {
          udf_extra += rescans * inner.est_udf_cost;
        }
        if (pred.expr != nullptr && pred.is_expensive()) {
          double evals = outer.est_rows * inner.est_rows;
          if (params_.predicate_caching && pred.input_distinct_values > 0) {
            evals = std::min(
                evals,
                DistinctInStream(
                    static_cast<double>(pred.input_distinct_values), evals,
                    pred.input_base_rows));
          }
          udf_extra += evals * pred.cost_per_tuple;
        }
      }

      const bool charges_inner =
          node->join_method != plan::JoinMethod::kIndexNestLoop;

      // Predicate transfer: the build side's Bloom filter prunes the probe
      // (outer) stream down at its scan, so expensive predicates sitting
      // between that scan and this join only ever see the surviving
      // fraction. Credit back the doomed share of the outer subtree's UDF
      // charge (its I/O is unchanged — the scan still reads every page).
      double transfer_credit = 0.0;
      if (TransferApplies(*node) && outer.est_udf_cost > 0.0) {
        const double tsel = StreamSelectivity(*node, 0);
        transfer_credit = outer.est_udf_cost * (1.0 - tsel);
      }

      node->est_rows = outer.est_rows * inner.est_rows * s;
      node->est_rows_noexp = outer.est_rows_noexp * inner.est_rows_noexp * s;
      node->est_width = outer.est_width + inner.est_width;
      node->est_cost = outer.est_cost + (charges_inner ? inner.est_cost : 0.0) +
                       extra - transfer_credit;
      node->est_udf_cost = outer.est_udf_cost +
                           (charges_inner ? inner.est_udf_cost : 0.0) +
                           udf_extra - transfer_credit;
      if (node->join_method == plan::JoinMethod::kMerge) {
        node->est_order = JoinColumnOnSide(*node, 0);
      } else {
        node->est_order = outer.est_order;
      }
      break;
    }
    case plan::PlanKind::kSort: {
      const plan::PlanNode& child = *node->children[0];
      node->est_rows = child.est_rows;
      node->est_rows_noexp = child.est_rows_noexp;
      node->est_width = child.est_width;
      node->est_cost =
          child.est_cost + SortCost(PagesFor(child.est_rows, child.est_width));
      node->est_udf_cost = child.est_udf_cost;
      node->est_order = node->sort_column;
      break;
    }
    case plan::PlanKind::kMaterialize: {
      const plan::PlanNode& child = *node->children[0];
      node->est_rows = child.est_rows;
      node->est_rows_noexp = child.est_rows_noexp;
      node->est_width = child.est_width;
      node->est_cost = child.est_cost +
                       PagesFor(child.est_rows, child.est_width) *
                           params_.seq_page_io;
      node->est_udf_cost = child.est_udf_cost;
      node->est_order = child.est_order;
      break;
    }
    case plan::PlanKind::kProject: {
      const plan::PlanNode& child = *node->children[0];
      node->est_rows = child.est_rows;
      node->est_rows_noexp = child.est_rows_noexp;
      node->est_width = child.est_width;
      node->est_cost = child.est_cost;
      node->est_udf_cost = child.est_udf_cost;
      node->est_order = child.est_order;
      break;
    }
    case plan::PlanKind::kAggregate: {
      const plan::PlanNode& child = *node->children[0];
      // Output cardinality: product of the group columns' distinct counts,
      // clamped by the input cardinality; 1 for a global aggregate.
      double groups = 1.0;
      for (const std::string& qualified : node->group_columns) {
        const size_t dot = qualified.find('.');
        if (dot == std::string::npos) continue;
        auto table = ResolveTable(qualified.substr(0, dot));
        if (!table.ok()) continue;
        const int64_t d = (*table)->EffectiveDistinct(
            qualified.substr(dot + 1), params_.use_collected_stats);
        groups *= static_cast<double>(std::max<int64_t>(1, d));
      }
      node->est_rows = node->group_columns.empty()
                           ? 1.0
                           : std::min(groups, std::max(child.est_rows, 1.0));
      node->est_rows_noexp = node->est_rows;
      node->est_width = 16.0 * static_cast<double>(
          node->group_columns.size() + node->aggregates.size());
      node->est_cost = child.est_cost;  // CPU-only, free in this model.
      node->est_udf_cost = child.est_udf_cost;
      node->est_order = std::nullopt;
      break;
    }
  }
  return common::Status::OK();
}

}  // namespace ppp::cost

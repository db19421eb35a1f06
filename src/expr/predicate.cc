#include "expr/predicate.h"

#include <algorithm>
#include <optional>

#include "common/string_util.h"
#include "obs/profiler.h"
#include "stats/estimator.h"

namespace ppp::expr {

namespace {
constexpr double kDefaultEqSelectivity = 0.1;    // System R magic number.
constexpr double kDefaultRangeSelectivity = 1.0 / 3.0;

StatSource MaxSource(StatSource a, StatSource b) {
  return static_cast<uint8_t>(a) >= static_cast<uint8_t>(b) ? a : b;
}
}  // namespace

const char* StatSourceName(StatSource source) {
  switch (source) {
    case StatSource::kDeclared: return "decl";
    case StatSource::kStats: return "stats";
    case StatSource::kFeedback: return "feedback";
  }
  return "decl";
}

std::string PredicateInfo::ToString() const {
  return common::StringPrintf(
      "{%s | tables=%zu cost=%.3g sel=%.4g rank=%.4g%s}",
      expr->ToString().c_str(), tables.size(), cost_per_tuple, selectivity,
      rank(), is_simple_equijoin ? " equijoin" : "");
}

common::Result<PredicateInfo> PredicateAnalyzer::Analyze(
    const ExprPtr& expr) const {
  if (expr == nullptr) {
    return common::Status::InvalidArgument("cannot analyze null predicate");
  }
  PredicateInfo info;
  info.expr = expr;
  info.tables = expr->ReferencedTables();

  for (const std::string& table : info.tables) {
    if (binding_.count(table) == 0) {
      return common::Status::NotFound("predicate " + expr->ToString() +
                                      " references unbound alias " + table);
    }
  }

  PPP_ASSIGN_OR_RETURN(const Estimate sel, EstimateSelectivity(*expr));
  info.selectivity = sel.value;
  info.selectivity_source = sel.source;
  PPP_ASSIGN_OR_RETURN(const Estimate cost, EstimateCost(*expr));
  info.cost_per_tuple = cost.value;
  info.cost_source = cost.source;

  // Simple equi-join detection: `a.c1 = b.c2`, two distinct aliases.
  if (expr->kind == ExprKind::kComparison &&
      expr->compare_op == CompareOp::kEq &&
      expr->children[0]->kind == ExprKind::kColumnRef &&
      expr->children[1]->kind == ExprKind::kColumnRef &&
      expr->children[0]->table != expr->children[1]->table) {
    info.is_simple_equijoin = true;
    info.left_table = expr->children[0]->table;
    info.left_column = expr->children[0]->column;
    info.right_table = expr->children[1]->table;
    info.right_column = expr->children[1]->column;
    StatSource ignored = StatSource::kDeclared;
    info.left_distinct = EffectiveDistinctOf(*expr->children[0], &ignored);
    info.right_distinct = EffectiveDistinctOf(*expr->children[1], &ignored);
  }

  // Distinct input bindings: product of per-column distinct counts over the
  // deduplicated column refs, clamped by the cross product of cardinalities.
  std::vector<const Expr*> refs;
  expr->CollectColumnRefs(&refs);
  std::set<std::string> seen;
  double distinct_product = 1.0;
  for (const Expr* ref : refs) {
    const std::string key = ref->table + "." + ref->column;
    if (!seen.insert(key).second) continue;
    StatSource ignored = StatSource::kDeclared;
    const int64_t d = std::max<int64_t>(1, EffectiveDistinctOf(*ref, &ignored));
    distinct_product *= static_cast<double>(d);
  }
  double card_product = 1.0;
  for (const std::string& table : info.tables) {
    card_product *=
        static_cast<double>(std::max<int64_t>(1, CardinalityOf(table)));
  }
  info.input_distinct_values = static_cast<int64_t>(
      std::min(distinct_product, std::max(card_product, 1.0)));
  info.input_base_rows = std::max(card_product, 1.0);

  return info;
}

common::Result<PredicateAnalyzer::Estimate>
PredicateAnalyzer::EstimateSelectivity(const Expr& expr) const {
  switch (expr.kind) {
    case ExprKind::kConstant:
      if (expr.constant.type() == types::TypeId::kBool) {
        return Estimate{expr.constant.AsBool() ? 1.0 : 0.0,
                        StatSource::kDeclared};
      }
      return Estimate{1.0, StatSource::kDeclared};
    case ExprKind::kColumnRef:
      // A bare boolean column; no stats on truth rate.
      return Estimate{0.5, StatSource::kDeclared};
    case ExprKind::kFunctionCall: {
      PPP_ASSIGN_OR_RETURN(const catalog::FunctionDef* def,
                           ResolveFunction(expr, catalog_->functions()));
      if (def->return_type != types::TypeId::kBool) {
        return Estimate{1.0, StatSource::kDeclared};
      }
      if (feedback_ != nullptr) {
        const std::optional<obs::FeedbackEntry> fb =
            feedback_->Lookup(expr.function_name);
        if (fb.has_value() && fb->has_selectivity) {
          return Estimate{fb->selectivity, StatSource::kFeedback};
        }
      }
      // UDF truth rates are opaque to column statistics: the ladder for
      // functions is feedback > declared, with no stats tier.
      return Estimate{def->selectivity, StatSource::kDeclared};
    }
    case ExprKind::kAnd: {
      PPP_ASSIGN_OR_RETURN(const Estimate a,
                           EstimateSelectivity(*expr.children[0]));
      PPP_ASSIGN_OR_RETURN(const Estimate b,
                           EstimateSelectivity(*expr.children[1]));
      return Estimate{a.value * b.value, MaxSource(a.source, b.source)};
    }
    case ExprKind::kOr: {
      PPP_ASSIGN_OR_RETURN(const Estimate a,
                           EstimateSelectivity(*expr.children[0]));
      PPP_ASSIGN_OR_RETURN(const Estimate b,
                           EstimateSelectivity(*expr.children[1]));
      return Estimate{a.value + b.value - a.value * b.value,
                      MaxSource(a.source, b.source)};
    }
    case ExprKind::kNot: {
      PPP_ASSIGN_OR_RETURN(const Estimate a,
                           EstimateSelectivity(*expr.children[0]));
      return Estimate{1.0 - a.value, a.source};
    }
    case ExprKind::kArithmetic:
      return Estimate{1.0, StatSource::kDeclared};
    case ExprKind::kInSubquery:
      // Unrewritten IN predicate: System R's default membership guess.
      return Estimate{0.5, StatSource::kDeclared};
    case ExprKind::kComparison:
      return ComparisonSelectivity(expr);
  }
  return Estimate{kDefaultRangeSelectivity, StatSource::kDeclared};
}

PredicateAnalyzer::Estimate PredicateAnalyzer::ComparisonSelectivity(
    const Expr& expr) const {
  const Expr& left = *expr.children[0];
  const Expr& right = *expr.children[1];
  const bool left_col = left.kind == ExprKind::kColumnRef;
  const bool right_col = right.kind == ExprKind::kColumnRef;
  const bool left_const = left.kind == ExprKind::kConstant;
  const bool right_const = right.kind == ExprKind::kConstant;

  switch (expr.compare_op) {
    case CompareOp::kEq: {
      if (left_col && right_col && left.table != right.table) {
        // Join: 1 / max(ndv) under containment; NDV through the ladder.
        StatSource source = StatSource::kDeclared;
        const int64_t d1 = EffectiveDistinctOf(left, &source);
        const int64_t d2 = EffectiveDistinctOf(right, &source);
        const int64_t d = std::max<int64_t>({d1, d2, 1});
        return {1.0 / static_cast<double>(d), source};
      }
      const Expr* col = left_col ? &left : (right_col ? &right : nullptr);
      const Expr* cst = right_const ? &right : (left_const ? &left : nullptr);
      if (col != nullptr && cst != nullptr) {
        std::shared_ptr<const stats::TableStatistics> hold;
        const stats::ColumnDistribution* dist = DistributionOf(*col, &hold);
        if (dist != nullptr) {
          const std::optional<double> est =
              stats::EstimateEquals(*dist, cst->constant);
          if (est.has_value()) return {*est, StatSource::kStats};
        }
        const int64_t d = std::max<int64_t>(1, StatsOf(*col).num_distinct);
        return {1.0 / static_cast<double>(d), StatSource::kDeclared};
      }
      return {kDefaultEqSelectivity, StatSource::kDeclared};
    }
    case CompareOp::kNe: {
      // 1 - eq selectivity, reusing the cases above.
      Expr eq = expr;
      eq.compare_op = CompareOp::kEq;
      const Estimate s = ComparisonSelectivity(eq);
      return {1.0 - s.value, s.source};
    }
    case CompareOp::kLt:
    case CompareOp::kLe:
    case CompareOp::kGt:
    case CompareOp::kGe: {
      const Expr* col = left_col ? &left : (right_col ? &right : nullptr);
      const Expr* cst = right_const ? &right : (left_const ? &left : nullptr);
      if (col == nullptr || cst == nullptr) {
        return {kDefaultRangeSelectivity, StatSource::kDeclared};
      }
      const bool col_on_left = (col == &left);
      std::shared_ptr<const stats::TableStatistics> hold;
      const stats::ColumnDistribution* dist = DistributionOf(*col, &hold);
      if (dist != nullptr) {
        // `c <op> col` is `col <flipped-op> c`; strictness is preserved.
        stats::RangeOp rop = stats::RangeOp::kLt;
        switch (expr.compare_op) {
          case CompareOp::kLt:
            rop = col_on_left ? stats::RangeOp::kLt : stats::RangeOp::kGt;
            break;
          case CompareOp::kLe:
            rop = col_on_left ? stats::RangeOp::kLe : stats::RangeOp::kGe;
            break;
          case CompareOp::kGt:
            rop = col_on_left ? stats::RangeOp::kGt : stats::RangeOp::kLt;
            break;
          case CompareOp::kGe:
            rop = col_on_left ? stats::RangeOp::kGe : stats::RangeOp::kLe;
            break;
          default:
            break;
        }
        const std::optional<double> est =
            stats::EstimateRange(*dist, rop, cst->constant);
        if (est.has_value()) return {*est, StatSource::kStats};
      }
      if (cst->constant.type() != types::TypeId::kInt64) {
        return {kDefaultRangeSelectivity, StatSource::kDeclared};
      }
      const catalog::ColumnStats stats = StatsOf(*col);
      if (stats.max_value <= stats.min_value) {
        return {kDefaultRangeSelectivity, StatSource::kDeclared};
      }
      const double lo = static_cast<double>(stats.min_value);
      const double hi = static_cast<double>(stats.max_value);
      const double c = static_cast<double>(cst->constant.AsInt64());
      double frac = (c - lo) / (hi - lo);  // P(col < c) under uniformity.
      const bool less = (expr.compare_op == CompareOp::kLt ||
                         expr.compare_op == CompareOp::kLe);
      // `col < c` keeps frac; `col > c` keeps 1 - frac; constant-on-left
      // flips the direction.
      if (less != col_on_left) frac = 1.0 - frac;
      return {std::clamp(frac, 0.0, 1.0), StatSource::kDeclared};
    }
  }
  return {kDefaultRangeSelectivity, StatSource::kDeclared};
}

common::Result<PredicateAnalyzer::Estimate> PredicateAnalyzer::EstimateCost(
    const Expr& expr) const {
  std::vector<const Expr*> calls;
  expr.CollectFunctionCalls(&calls);
  Estimate cost{0.0, StatSource::kDeclared};
  for (const Expr* call : calls) {
    PPP_ASSIGN_OR_RETURN(const catalog::FunctionDef* def,
                         ResolveFunction(*call, catalog_->functions()));
    if (feedback_ != nullptr) {
      const std::optional<obs::FeedbackEntry> fb =
          feedback_->Lookup(call->function_name);
      if (fb.has_value()) {
        cost.value += fb->cost_per_call;
        cost.source = StatSource::kFeedback;
        continue;
      }
    }
    cost.value += def->cost_per_call;
  }
  return cost;
}

catalog::ColumnStats PredicateAnalyzer::StatsOf(
    const Expr& column_ref) const {
  auto it = binding_.find(column_ref.table);
  if (it == binding_.end() || it->second == nullptr) return {};
  return it->second->GetColumnStats(column_ref.column);
}

const stats::ColumnDistribution* PredicateAnalyzer::DistributionOf(
    const Expr& column_ref,
    std::shared_ptr<const stats::TableStatistics>* hold) const {
  if (!use_stats_) return nullptr;
  auto it = binding_.find(column_ref.table);
  if (it == binding_.end() || it->second == nullptr) return nullptr;
  *hold = it->second->collected_stats();
  if (*hold == nullptr) return nullptr;
  return (*hold)->Find(column_ref.column);
}

int64_t PredicateAnalyzer::CardinalityOf(const std::string& alias) const {
  auto it = binding_.find(alias);
  if (it == binding_.end() || it->second == nullptr) return 0;
  return it->second->NumTuples();
}

int64_t PredicateAnalyzer::EffectiveDistinctOf(const Expr& column_ref,
                                               StatSource* source) const {
  std::shared_ptr<const stats::TableStatistics> hold;
  const stats::ColumnDistribution* dist = DistributionOf(column_ref, &hold);
  if (dist != nullptr && dist->ndv > 0.0) {
    *source = MaxSource(*source, StatSource::kStats);
    return static_cast<int64_t>(dist->ndv + 0.5);
  }
  return StatsOf(column_ref).num_distinct;
}

}  // namespace ppp::expr

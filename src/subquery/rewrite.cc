#include "subquery/rewrite.h"

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/string_util.h"
#include "obs/span.h"
#include "exec/executor.h"
#include "optimizer/optimizer.h"
#include "parser/parser.h"
#include "parser/binder.h"

namespace ppp::subquery {

namespace {

using ColumnKey = std::pair<std::string, std::string>;  // (table, column).

/// Column refs in the subquery body that name tables outside the
/// subquery's own FROM list, i.e. the correlation parameters, in
/// deterministic (depth-first, deduplicated) order.
std::vector<ColumnKey> CollectCorrelated(const expr::SubquerySpec& spec) {
  std::set<std::string> inner_aliases;
  for (const auto& [alias, table] : spec.tables) inner_aliases.insert(alias);

  std::vector<ColumnKey> out;
  std::set<ColumnKey> seen;
  auto visit = [&](const expr::ExprPtr& e) {
    if (e == nullptr) return;
    std::vector<const expr::Expr*> refs;
    e->CollectColumnRefs(&refs);
    for (const expr::Expr* ref : refs) {
      if (inner_aliases.count(ref->table) > 0) continue;
      const ColumnKey key{ref->table, ref->column};
      if (seen.insert(key).second) out.push_back(key);
    }
  };
  visit(spec.output);
  for (const expr::ExprPtr& conjunct : spec.conjuncts) visit(conjunct);
  return out;
}

/// Replaces correlated column refs with constants.
expr::ExprPtr Substitute(const expr::ExprPtr& e,
                         const std::map<ColumnKey, types::Value>& params) {
  if (e == nullptr) return e;
  if (e->kind == expr::ExprKind::kColumnRef) {
    auto it = params.find({e->table, e->column});
    if (it != params.end()) return expr::Const(it->second);
    return e;
  }
  if (e->children.empty()) return e;
  auto copy = std::make_shared<expr::Expr>(*e);
  for (expr::ExprPtr& child : copy->children) {
    child = Substitute(child, params);
  }
  return copy;
}

/// Plans `spec` with its correlation columns bound to args[1..], in
/// `correlated` order (args[0] is the needle). The cost estimate and every
/// invocation plan through here.
common::Result<optimizer::OptimizeResult> PlanInstance(
    const expr::SubquerySpec& spec, const std::vector<ColumnKey>& correlated,
    const std::vector<types::Value>& args, catalog::Catalog* catalog) {
  std::map<ColumnKey, types::Value> params;
  for (size_t i = 0; i < correlated.size(); ++i) {
    params[correlated[i]] = args[i + 1];
  }
  plan::QuerySpec inner;
  for (const auto& [alias, table] : spec.tables) {
    inner.tables.push_back({alias, table});
  }
  for (const expr::ExprPtr& conjunct : spec.conjuncts) {
    inner.conjuncts.push_back(Substitute(conjunct, params));
  }
  inner.select_list.push_back(Substitute(spec.output, params));
  inner.select_names.push_back("v");
  optimizer::Optimizer opt(catalog, {});
  return opt.Optimize(inner, optimizer::Algorithm::kPushDown);
}

/// One invocation: whether the instantiated subquery's output holds the
/// needle args[0]. The buffer pool meters its pages like any other read.
common::Result<bool> RunInstance(const expr::SubquerySpec& spec,
                                 const std::vector<ColumnKey>& correlated,
                                 const std::vector<types::Value>& args,
                                 catalog::Catalog* catalog) {
  PPP_ASSIGN_OR_RETURN(optimizer::OptimizeResult planned,
                       PlanInstance(spec, correlated, args, catalog));
  exec::ExecContext ctx;
  ctx.catalog = catalog;
  for (const auto& [alias, table] : spec.tables) {
    PPP_ASSIGN_OR_RETURN(ctx.binding[alias], catalog->GetTable(table));
  }
  PPP_ASSIGN_OR_RETURN(std::vector<types::Tuple> rows,
                       exec::ExecutePlan(*planned.plan, &ctx, nullptr));
  for (const types::Tuple& row : rows) {
    if (!row.Get(0).is_null() && row.Get(0) == args[0]) return true;
  }
  return false;
}

/// Appends every constant under `e` in its exact serialized form.
void AppendLiterals(const expr::ExprPtr& e, std::string* out) {
  if (e->kind == expr::ExprKind::kConstant) {
    types::Tuple::SerializeValue(e->constant, out);
  }
  for (const expr::ExprPtr& child : e->children) AppendLiterals(child, out);
}

/// `__subq_<hex>`: FNV-1a of the subquery's text (a nested subquery shows
/// as its own call), its literals exactly (ToString prints doubles with
/// %g) and its correlation columns. One subquery has one name on every
/// compile; two that differ anywhere have two.
std::string SubqueryName(
    const std::shared_ptr<const expr::SubquerySpec>& spec,
    const std::vector<ColumnKey>& correlated) {
  std::string text =
      expr::InSubquery(expr::Const(types::Value()), spec)->ToString();
  AppendLiterals(spec->output, &text);
  for (const expr::ExprPtr& c : spec->conjuncts) AppendLiterals(c, &text);
  for (const auto& [table, column] : correlated) {
    text += "|" + table + "." + column;
  }
  return common::StringPrintf(
      "__subq_%016llx",
      static_cast<unsigned long long>(common::Fnv1aHash(text)));
}

common::Result<expr::ExprPtr> RewriteExpr(const expr::ExprPtr& e,
                                          catalog::Catalog* catalog,
                                          plan::QuerySpec* outer) {
  if (e == nullptr) return e;
  if (e->kind != expr::ExprKind::kInSubquery) {
    if (e->children.empty()) return e;
    auto copy = std::make_shared<expr::Expr>(*e);
    for (expr::ExprPtr& child : copy->children) {
      PPP_ASSIGN_OR_RETURN(child, RewriteExpr(child, catalog, outer));
    }
    return expr::ExprPtr(std::move(copy));
  }

  // Rewrite nested subqueries inside this one first, so the runtime spec
  // contains only executable predicates.
  auto spec = std::make_shared<expr::SubquerySpec>();
  spec->tables = e->subquery->tables;
  PPP_ASSIGN_OR_RETURN(spec->output,
                       RewriteExpr(e->subquery->output, catalog, outer));
  for (const expr::ExprPtr& conjunct : e->subquery->conjuncts) {
    PPP_ASSIGN_OR_RETURN(expr::ExprPtr rewritten,
                         RewriteExpr(conjunct, catalog, outer));
    spec->conjuncts.push_back(std::move(rewritten));
  }
  PPP_ASSIGN_OR_RETURN(expr::ExprPtr needle,
                       RewriteExpr(e->children[0], catalog, outer));
  // Read before the estimate below reads the statistics, so an ANALYZE in
  // between leaves a stale epoch (the safe direction).
  for (const auto& [alias, table_name] : spec->tables) {
    PPP_ASSIGN_OR_RETURN(catalog::Table * table,
                         catalog->GetTable(table_name));
    outer->subquery_tables.emplace_back(table_name, table->stats_epoch());
  }

  const std::vector<ColumnKey> correlated = CollectCorrelated(*spec);
  auto def = std::make_shared<catalog::FunctionDef>();
  def->name = SubqueryName(spec, correlated);
  // Optimizer-facing cost of one evaluation: the subquery plan's estimate
  // with its correlation columns bound to a placeholder.
  auto estimate = PlanInstance(
      *spec, correlated,
      std::vector<types::Value>(correlated.size() + 1, types::Value(int64_t{0})),
      catalog);
  def->cost_per_call = estimate.ok() ? std::max(1.0, estimate->est_cost)
                                     : 25.0;  // Conservative default.
  def->selectivity = 0.5;  // System R's IN-membership default.
  def->return_type = types::TypeId::kBool;
  def->cacheable = true;
  // The subquery does real, metered I/O when invoked; cost_per_call is an
  // optimizer estimate, not a bill.
  def->charge_invocations = false;
  // The impl executes nested plans through the shared buffer pool —
  // coordinator-thread only.
  def->parallel_safe = false;
  def->impl = [spec, correlated,
               catalog](const std::vector<types::Value>& args) {
    if (args.empty() || args[0].is_null()) return types::Value(false);
    auto member = RunInstance(*spec, correlated, args, catalog);
    if (!member.ok()) {
      PPP_LOG(Error) << "subquery execution failed: "
                     << member.status().ToString();
      return types::Value();
    }
    return types::Value(*member);
  };

  std::vector<expr::ExprPtr> call_args;
  call_args.push_back(std::move(needle));
  for (const ColumnKey& key : correlated) {
    call_args.push_back(expr::Col(key.first, key.second));
  }
  auto call = std::make_shared<expr::Expr>(
      *expr::Call(def->name, std::move(call_args)));
  call->function = std::move(def);
  return expr::ExprPtr(std::move(call));
}
}  // namespace

common::Status RewriteSubqueries(plan::QuerySpec* spec,
                                 catalog::Catalog* catalog) {
  for (expr::ExprPtr& conjunct : spec->conjuncts) {
    PPP_ASSIGN_OR_RETURN(conjunct, RewriteExpr(conjunct, catalog, spec));
  }
  for (expr::ExprPtr& item : spec->select_list) {
    PPP_ASSIGN_OR_RETURN(item, RewriteExpr(item, catalog, spec));
  }
  return common::Status::OK();
}

namespace {

common::Result<plan::QuerySpec> BindRewriteParsed(
    parser::ParsedSelect parsed, catalog::Catalog* catalog,
    std::optional<obs::Span>* span, bool traced) {
  if (traced) span->emplace("frontend", "bind");
  PPP_ASSIGN_OR_RETURN(plan::QuerySpec spec,
                       parser::BindSelect(parsed, *catalog));
  if (traced) span->emplace("frontend", "rewrite");
  PPP_RETURN_IF_ERROR(RewriteSubqueries(&spec, catalog));
  return spec;
}

}  // namespace

common::Result<plan::QuerySpec> ParseBindRewrite(const std::string& sql,
                                                 catalog::Catalog* catalog) {
  const bool traced = obs::SpanTracer::Global().enabled();
  std::optional<obs::Span> span;
  if (traced) span.emplace("frontend", "parse");
  PPP_ASSIGN_OR_RETURN(parser::ParsedSelect parsed, parser::ParseSelect(sql));
  return BindRewriteParsed(std::move(parsed), catalog, &span, traced);
}

common::Result<plan::QuerySpec> ParseBindRewrite(
    const std::string& sql, const std::vector<types::Value>& params,
    catalog::Catalog* catalog) {
  const bool traced = obs::SpanTracer::Global().enabled();
  std::optional<obs::Span> span;
  if (traced) span.emplace("frontend", "parse");
  PPP_ASSIGN_OR_RETURN(parser::ParsedSelect parsed,
                       parser::ParseSelect(sql, params));
  return BindRewriteParsed(std::move(parsed), catalog, &span, traced);
}

}  // namespace ppp::subquery

#include "expr/expr.h"

#include "catalog/function_registry.h"
#include "common/logging.h"
#include "common/string_util.h"

namespace ppp::expr {

const char* CompareOpSymbol(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "<>";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

const char* ArithOpSymbol(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd:
      return "+";
    case ArithOp::kSub:
      return "-";
    case ArithOp::kMul:
      return "*";
    case ArithOp::kDiv:
      return "/";
  }
  return "?";
}

std::string Expr::ToString() const {
  switch (kind) {
    case ExprKind::kColumnRef:
      return table.empty() ? column : table + "." + column;
    case ExprKind::kConstant:
      return constant.ToString();
    case ExprKind::kComparison:
      return children[0]->ToString() + " " + CompareOpSymbol(compare_op) +
             " " + children[1]->ToString();
    case ExprKind::kArithmetic:
      return "(" + children[0]->ToString() + " " + ArithOpSymbol(arith_op) +
             " " + children[1]->ToString() + ")";
    case ExprKind::kFunctionCall: {
      std::vector<std::string> args;
      args.reserve(children.size());
      for (const ExprPtr& c : children) args.push_back(c->ToString());
      return function_name + "(" + common::Join(args, ", ") + ")";
    }
    case ExprKind::kAnd:
      return "(" + children[0]->ToString() + " AND " +
             children[1]->ToString() + ")";
    case ExprKind::kOr:
      return "(" + children[0]->ToString() + " OR " +
             children[1]->ToString() + ")";
    case ExprKind::kNot:
      return "NOT (" + children[0]->ToString() + ")";
    case ExprKind::kInSubquery: {
      std::string from;
      std::string where;
      if (subquery != nullptr) {
        std::vector<std::string> tables;
        for (const auto& [alias, name] : subquery->tables) {
          tables.push_back(alias == name ? name : name + " " + alias);
        }
        from = common::Join(tables, ", ");
        std::vector<std::string> preds;
        for (const ExprPtr& c : subquery->conjuncts) {
          preds.push_back(c->ToString());
        }
        where = preds.empty() ? "" : " WHERE " + common::Join(preds, " AND ");
      }
      return children[0]->ToString() + " IN (SELECT " +
             (subquery != nullptr && subquery->output != nullptr
                  ? subquery->output->ToString()
                  : "?") +
             " FROM " + from + where + ")";
    }
  }
  return "?";
}

void Expr::CollectTables(std::set<std::string>* out) const {
  if (kind == ExprKind::kColumnRef) {
    out->insert(table);
    return;
  }
  if (kind == ExprKind::kInSubquery) {
    // The node references its needle's tables plus any *correlated* outer
    // tables inside the subquery (inner aliases shadow).
    children[0]->CollectTables(out);
    if (subquery != nullptr) {
      std::set<std::string> inner_aliases;
      for (const auto& [alias, name] : subquery->tables) {
        inner_aliases.insert(alias);
      }
      std::set<std::string> inner_refs;
      for (const ExprPtr& c : subquery->conjuncts) {
        c->CollectTables(&inner_refs);
      }
      if (subquery->output != nullptr) {
        subquery->output->CollectTables(&inner_refs);
      }
      for (const std::string& t : inner_refs) {
        if (inner_aliases.count(t) == 0) out->insert(t);
      }
    }
    return;
  }
  for (const ExprPtr& c : children) c->CollectTables(out);
}

std::set<std::string> Expr::ReferencedTables() const {
  std::set<std::string> out;
  CollectTables(&out);
  return out;
}

void Expr::CollectColumnRefs(std::vector<const Expr*>* out) const {
  if (kind == ExprKind::kColumnRef) {
    out->push_back(this);
    return;
  }
  for (const ExprPtr& c : children) c->CollectColumnRefs(out);
}

void Expr::CollectFunctionCalls(std::vector<const Expr*>* out) const {
  if (kind == ExprKind::kFunctionCall) out->push_back(this);
  for (const ExprPtr& c : children) c->CollectFunctionCalls(out);
}

bool Expr::Equals(const Expr& other) const {
  if (kind != other.kind) return false;
  switch (kind) {
    case ExprKind::kColumnRef:
      return table == other.table && column == other.column;
    case ExprKind::kConstant:
      if (constant.type() != other.constant.type()) return false;
      return constant == other.constant;
    case ExprKind::kComparison:
      if (compare_op != other.compare_op) return false;
      break;
    case ExprKind::kArithmetic:
      if (arith_op != other.arith_op) return false;
      break;
    case ExprKind::kFunctionCall:
      if (function_name != other.function_name) return false;
      break;
    case ExprKind::kInSubquery:
      // Structural subquery comparison is not needed anywhere; identity of
      // the spec object is the practical notion of equality.
      if (subquery != other.subquery) return false;
      break;
    default:
      break;
  }
  if (children.size() != other.children.size()) return false;
  for (size_t i = 0; i < children.size(); ++i) {
    if (!children[i]->Equals(*other.children[i])) return false;
  }
  return true;
}

namespace {
std::shared_ptr<Expr> Make(ExprKind kind) {
  auto e = std::make_shared<Expr>();
  e->kind = kind;
  return e;
}
}  // namespace

ExprPtr Col(std::string table, std::string column) {
  auto e = Make(ExprKind::kColumnRef);
  e->table = std::move(table);
  e->column = std::move(column);
  return e;
}

ExprPtr Const(types::Value v) {
  auto e = Make(ExprKind::kConstant);
  e->constant = std::move(v);
  return e;
}

ExprPtr ParamConst(types::Value v, int slot) {
  auto e = Make(ExprKind::kConstant);
  e->constant = std::move(v);
  e->param_slot = slot;
  return e;
}

ExprPtr Int(int64_t v) { return Const(types::Value(v)); }

ExprPtr Cmp(CompareOp op, ExprPtr left, ExprPtr right) {
  PPP_CHECK(left != nullptr && right != nullptr);
  auto e = Make(ExprKind::kComparison);
  e->compare_op = op;
  e->children = {std::move(left), std::move(right)};
  return e;
}

ExprPtr Eq(ExprPtr left, ExprPtr right) {
  return Cmp(CompareOp::kEq, std::move(left), std::move(right));
}

ExprPtr Arith(ArithOp op, ExprPtr left, ExprPtr right) {
  PPP_CHECK(left != nullptr && right != nullptr);
  auto e = Make(ExprKind::kArithmetic);
  e->arith_op = op;
  e->children = {std::move(left), std::move(right)};
  return e;
}

ExprPtr Call(std::string function, std::vector<ExprPtr> args) {
  auto e = Make(ExprKind::kFunctionCall);
  e->function_name = std::move(function);
  e->children = std::move(args);
  return e;
}

common::Result<const catalog::FunctionDef*> ResolveFunction(
    const Expr& call, const catalog::FunctionRegistry& functions) {
  if (call.function != nullptr) return call.function.get();
  return functions.Lookup(call.function_name);
}

ExprPtr And(ExprPtr left, ExprPtr right) {
  PPP_CHECK(left != nullptr && right != nullptr);
  auto e = Make(ExprKind::kAnd);
  e->children = {std::move(left), std::move(right)};
  return e;
}

ExprPtr Or(ExprPtr left, ExprPtr right) {
  PPP_CHECK(left != nullptr && right != nullptr);
  auto e = Make(ExprKind::kOr);
  e->children = {std::move(left), std::move(right)};
  return e;
}

ExprPtr Not(ExprPtr child) {
  PPP_CHECK(child != nullptr);
  auto e = Make(ExprKind::kNot);
  e->children = {std::move(child)};
  return e;
}

ExprPtr InSubquery(ExprPtr needle,
                   std::shared_ptr<const SubquerySpec> subquery) {
  PPP_CHECK(needle != nullptr && subquery != nullptr);
  auto e = Make(ExprKind::kInSubquery);
  e->children = {std::move(needle)};
  e->subquery = std::move(subquery);
  return e;
}

std::vector<ExprPtr> SplitConjuncts(const ExprPtr& expr) {
  std::vector<ExprPtr> out;
  if (expr == nullptr) return out;
  if (expr->kind == ExprKind::kAnd) {
    for (const ExprPtr& c : expr->children) {
      std::vector<ExprPtr> sub = SplitConjuncts(c);
      out.insert(out.end(), sub.begin(), sub.end());
    }
    return out;
  }
  out.push_back(expr);
  return out;
}

ExprPtr CombineConjuncts(const std::vector<ExprPtr>& conjuncts) {
  if (conjuncts.empty()) return nullptr;
  ExprPtr acc = conjuncts[0];
  for (size_t i = 1; i < conjuncts.size(); ++i) {
    acc = And(acc, conjuncts[i]);
  }
  return acc;
}

ExprPtr SubstituteParams(const ExprPtr& expr,
                         const std::vector<types::Value>& values) {
  if (expr == nullptr) return expr;
  if (expr->kind == ExprKind::kConstant) {
    const int slot = expr->param_slot;
    if (slot < 1 || static_cast<size_t>(slot) > values.size()) return expr;
    return ParamConst(values[static_cast<size_t>(slot) - 1], slot);
  }
  if (expr->children.empty()) return expr;
  bool changed = false;
  std::vector<ExprPtr> children;
  children.reserve(expr->children.size());
  for (const ExprPtr& child : expr->children) {
    ExprPtr replaced = SubstituteParams(child, values);
    changed = changed || replaced != child;
    children.push_back(std::move(replaced));
  }
  if (!changed) return expr;
  auto copy = std::make_shared<Expr>(*expr);
  copy->children = std::move(children);
  return copy;
}

void CollectParamSlots(const ExprPtr& expr, std::set<int>* out) {
  if (expr == nullptr) return;
  if (expr->kind == ExprKind::kConstant && expr->param_slot >= 1) {
    out->insert(expr->param_slot);
  }
  if (expr->kind == ExprKind::kInSubquery && expr->subquery != nullptr) {
    CollectParamSlots(expr->subquery->output, out);
    for (const ExprPtr& c : expr->subquery->conjuncts) {
      CollectParamSlots(c, out);
    }
  }
  for (const ExprPtr& c : expr->children) CollectParamSlots(c, out);
}

}  // namespace ppp::expr

#ifndef PPP_EXPR_EXPR_H_
#define PPP_EXPR_EXPR_H_

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "types/value.h"

namespace ppp::catalog {
struct FunctionDef;
class FunctionRegistry;
}  // namespace ppp::catalog

namespace ppp::expr {

enum class ExprKind {
  kColumnRef,
  kConstant,
  kComparison,
  kArithmetic,
  kFunctionCall,
  kAnd,
  kOr,
  kNot,
  kInSubquery,
};

enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };
enum class ArithOp { kAdd, kSub, kMul, kDiv };

const char* CompareOpSymbol(CompareOp op);
const char* ArithOpSymbol(ArithOp op);

class Expr;
/// Expression nodes are immutable and shared; plans, predicates and the
/// parser all alias subtrees freely.
using ExprPtr = std::shared_ptr<const Expr>;

/// The body of an `x IN (SELECT out FROM ... WHERE ...)` predicate — a
/// minimal mirror of plan::QuerySpec that can live below the plan layer.
/// The paper treats such (especially correlated) subqueries as the
/// original expensive predicates (§1, §5.1); the binder rewrites them into
/// cacheable expensive-function predicates.
struct SubquerySpec {
  /// FROM clause: (alias, table name) pairs.
  std::vector<std::pair<std::string, std::string>> tables;
  /// WHERE conjuncts; column refs may name outer aliases (correlation).
  std::vector<ExprPtr> conjuncts;
  /// The single SELECT item.
  ExprPtr output;
};

/// An immutable scalar expression tree node.
///
/// A single class with a kind tag (rather than a class hierarchy) keeps
/// construction, printing and recursive analysis in one place; the tree is
/// tiny compared to the data it filters.
class Expr {
 public:
  ExprKind kind;

  // kColumnRef. `table` is the range-variable name; may be empty until
  // name resolution qualifies it.
  std::string table;
  std::string column;

  // kConstant.
  types::Value constant;
  /// kConstant only: 1-based prepared-statement slot this constant was
  /// bound from, or -1 for a plain literal. Structural equality ignores it
  /// (a bound parameter compares like the literal it carries); the
  /// serving layer's generic-plan substitution rewrites exactly the
  /// constants that carry a slot.
  int param_slot = -1;

  // kComparison / kArithmetic.
  CompareOp compare_op = CompareOp::kEq;
  ArithOp arith_op = ArithOp::kAdd;

  // kFunctionCall. `function` is set only on calls that own their
  // definition (a rewritten subquery's); others resolve `function_name`
  // in the catalog's registry (see ResolveFunction).
  std::string function_name;
  std::shared_ptr<const catalog::FunctionDef> function;

  // kInSubquery: children[0] is the needle expression.
  std::shared_ptr<const SubquerySpec> subquery;

  // Operands (2 for binary nodes, 1 for NOT, n for calls).
  std::vector<ExprPtr> children;

  /// SQL-ish rendering: "t3.u1", "costly100(t3.u1)", "(a = b AND p(c))".
  std::string ToString() const;

  /// Adds every referenced range-variable name to `out`.
  void CollectTables(std::set<std::string>* out) const;
  std::set<std::string> ReferencedTables() const;

  /// Appends every column reference in the tree (depth-first).
  void CollectColumnRefs(std::vector<const Expr*>* out) const;

  /// Appends every function call in the tree (depth-first).
  void CollectFunctionCalls(std::vector<const Expr*>* out) const;

  /// Deep structural equality.
  bool Equals(const Expr& other) const;
};

// -- Factory helpers -------------------------------------------------------

ExprPtr Col(std::string table, std::string column);
ExprPtr Const(types::Value v);
/// A constant bound from prepared-statement parameter slot `slot`
/// (1-based). Behaves exactly like Const(v) everywhere except under
/// SubstituteParams, which rebinds it.
ExprPtr ParamConst(types::Value v, int slot);
ExprPtr Int(int64_t v);
ExprPtr Cmp(CompareOp op, ExprPtr left, ExprPtr right);
ExprPtr Eq(ExprPtr left, ExprPtr right);
ExprPtr Arith(ArithOp op, ExprPtr left, ExprPtr right);
ExprPtr Call(std::string function, std::vector<ExprPtr> args);
ExprPtr And(ExprPtr left, ExprPtr right);
ExprPtr Or(ExprPtr left, ExprPtr right);
ExprPtr Not(ExprPtr child);
ExprPtr InSubquery(ExprPtr needle,
                   std::shared_ptr<const SubquerySpec> subquery);

/// The definition a kFunctionCall node invokes: the one it owns, else the
/// registry's entry for its name (NotFound if neither). Every by-name
/// function lookup on the statement path goes through here.
common::Result<const catalog::FunctionDef*> ResolveFunction(
    const Expr& call, const catalog::FunctionRegistry& functions);

/// Splits nested ANDs into a flat conjunct list (the WHERE-clause form the
/// optimizer works with).
std::vector<ExprPtr> SplitConjuncts(const ExprPtr& expr);

/// Rebuilds a single expression from conjuncts (nullptr if empty).
ExprPtr CombineConjuncts(const std::vector<ExprPtr>& conjuncts);

/// Rewrites every slot-carrying constant (see Expr::param_slot) to
/// values[slot - 1], sharing unchanged subtrees. Slots outside `values`
/// are left untouched. Does not descend into kInSubquery specs — a
/// parameter captured by a subquery closure cannot be rebound, which the
/// plan-level parameterizability check detects by slot coverage.
ExprPtr SubstituteParams(const ExprPtr& expr,
                         const std::vector<types::Value>& values);

/// Adds every param_slot present in the tree to `out` (kInSubquery specs
/// included, so pre-rewrite coverage checks see captured slots too).
void CollectParamSlots(const ExprPtr& expr, std::set<int>* out);

}  // namespace ppp::expr

#endif  // PPP_EXPR_EXPR_H_

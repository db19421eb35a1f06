#ifndef PPP_EXEC_VECTOR_FILTER_H_
#define PPP_EXEC_VECTOR_FILTER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "expr/expr.h"
#include "types/column_batch.h"
#include "types/row_schema.h"

namespace ppp::exec {

/// One cheap WHERE-clause conjunct compiled against a ColumnBatch layout:
/// a comparison of `col <op> const`, `const <op> col` or `col <op> col`
/// over numeric (int64/double/bool) or string columns. Filter() runs it as
/// a tight loop over the typed column vectors, narrowing the batch's
/// selection vector in place — no tuples are materialized and no Values
/// are constructed.
///
/// Semantics mirror BoundExpr::Eval exactly: comparisons go through the
/// same three-way ordering as Value::Compare (int64/int64 exact, mixed
/// numeric via double, NaN equal to NaN and above every other number), and
/// a NULL operand
/// yields NULL. What NULL means to the selection depends on the caller:
///  - standalone cheap predicate: NULL rows drop (EvalBool semantics);
///  - cheap prefix of a mixed conjunction: NULL rows *survive* with their
///    `maybe_null` flag set, because SQL AND only short-circuits on FALSE —
///    the late expensive pass must still run on them (keeping UDF
///    invocation counters identical to scalar execution), but the row can
///    never reach the output.
class VectorizedPredicate {
 public:
  /// Compiles `conjunct` against `schema`; nullopt when the expression is
  /// not a vectorizable comparison (function calls, OR/NOT, arithmetic,
  /// heterogeneous string-vs-number operands, NULL literals, ...).
  static std::optional<VectorizedPredicate> Compile(
      const expr::ExprPtr& conjunct, const types::RowSchema& schema);

  /// True when every referenced column still has native (unboxed) storage
  /// in `batch`; callers fall back to scalar evaluation otherwise.
  bool Applicable(const types::ColumnBatch& batch) const;

  /// Narrows `batch`'s selection to rows where the conjunct holds. With
  /// `maybe_null` (sized to batch.num_rows()), NULL-evaluating rows survive
  /// and get their flag set; without it they drop.
  void Filter(types::ColumnBatch* batch,
              std::vector<uint8_t>* maybe_null) const;

 private:
  enum class TypeClass { kInt64, kDouble, kString };

  struct Operand {
    bool is_const = false;
    size_t column = 0;  // when !is_const
    // Constant payloads (one is live, per the predicate's TypeClass).
    int64_t i64 = 0;
    double f64 = 0.0;
    std::string str;
  };

  expr::CompareOp op_ = expr::CompareOp::kEq;
  TypeClass type_class_ = TypeClass::kInt64;
  Operand lhs_;
  Operand rhs_;
};

}  // namespace ppp::exec

#endif  // PPP_EXEC_VECTOR_FILTER_H_

#ifndef PPP_PLAN_QUERY_SPEC_H_
#define PPP_PLAN_QUERY_SPEC_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "expr/expr.h"

namespace ppp::plan {

/// One FROM-clause entry: `table_name [AS] alias`.
struct TableRef {
  std::string alias;
  std::string table_name;
};

/// A bound, analyzed SELECT query: the form the optimizer consumes.
/// Produced by the parser (parser::ParseSelect + Bind) or constructed
/// directly by tests and benchmarks.
struct QuerySpec {
  std::vector<TableRef> tables;
  /// WHERE clause, already split into conjuncts.
  std::vector<expr::ExprPtr> conjuncts;
  /// SELECT list; empty means SELECT *.
  std::vector<expr::ExprPtr> select_list;
  std::vector<std::string> select_names;

  /// SELECT DISTINCT: deduplicate the output rows (planned as a grouping
  /// with no aggregates).
  bool distinct = false;

  /// GROUP BY columns, qualified "alias.column". Non-empty (or aggregate
  /// calls in the select list) makes this an aggregate query.
  std::vector<std::string> group_by;

  /// HAVING predicate over group columns and aggregates; may be null.
  expr::ExprPtr having;

  /// Required output order: qualified "alias.column" (ascending), or
  /// empty. The optimizer prefers interestingly-ordered plans (index
  /// scans, merge joins) that satisfy it for free.
  std::string order_by;
  /// (table name, stats epoch) of every table a rewritten IN-subquery
  /// reads, filled by subquery::RewriteSubqueries before it estimates the
  /// subquery's cost. A cached plan validates against these epochs as
  /// well as those of `tables`.
  std::vector<std::pair<std::string, uint64_t>> subquery_tables;

  std::string ToString() const;
};

}  // namespace ppp::plan

#endif  // PPP_PLAN_QUERY_SPEC_H_

#ifndef PPP_PARSER_PARSER_H_
#define PPP_PARSER_PARSER_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "expr/expr.h"
#include "plan/query_spec.h"

namespace ppp::parser {

/// A parsed but unbound SELECT statement: column references may lack table
/// qualifiers and nothing has been checked against the catalog.
struct ParsedSelect {
  bool select_star = false;
  bool distinct = false;
  std::vector<expr::ExprPtr> select_list;
  std::vector<std::string> select_names;
  std::vector<plan::TableRef> tables;
  expr::ExprPtr where;     // May be null.
  std::vector<expr::ExprPtr> group_by;  // Column refs; may be empty.
  expr::ExprPtr having;    // May be null; may contain aggregates.
  expr::ExprPtr order_by;  // Single column ref, ascending; may be null.
};

/// Parses the SQL subset the paper's queries use:
///
///   SELECT * | expr [AS name], ...
///   FROM table [alias], ...
///   [WHERE <boolean expression>]
///
/// Expressions support AND/OR/NOT, comparisons (= <> < <= > >=),
/// arithmetic (+ - * /), integer/float/string literals, qualified and
/// unqualified column references, and function calls.
common::Result<ParsedSelect> ParseSelect(const std::string& sql);

/// ParseSelect over a parameterized statement: every `$n` placeholder
/// becomes a slot-carrying constant (expr::ParamConst) bound to
/// params[n - 1]. Rejects `$n` with n outside `params`. The plain
/// ParseSelect rejects `$n` entirely, so placeholders cannot leak into
/// unprepared statements.
common::Result<ParsedSelect> ParseSelect(
    const std::string& sql, const std::vector<types::Value>& params);

/// What the statement asks for: run the query, show its plan, run it and
/// show the plan annotated with actuals, or collect table statistics.
enum class StatementKind {
  kSelect,
  kExplain,         // EXPLAIN SELECT ...
  kExplainAnalyze,  // EXPLAIN ANALYZE SELECT ...
  kAnalyze,         // ANALYZE [table [, table]...]
  kPrepare,         // PREPARE name AS SELECT ... $n ...
  kExecute,         // EXECUTE name (literal, ...)
};

struct ParsedStatement {
  StatementKind kind = StatementKind::kSelect;
  ParsedSelect select;
  /// For kAnalyze: the tables to collect statistics for; empty means every
  /// table in the catalog.
  std::vector<std::string> analyze_tables;
  /// For kPrepare: the statement name and its raw SELECT body (everything
  /// after AS, unparsed — the serving layer normalizes and plans it).
  std::string prepare_name;
  std::string prepare_body;
  /// For kExecute: the statement name and the literal argument values in
  /// slot order.
  std::string execute_name;
  std::vector<types::Value> execute_params;
};

/// Strips a leading `EXPLAIN [ANALYZE]` prefix (case-insensitive) from
/// `sql`, storing the remaining statement in `*rest` and returning the
/// statement kind. Purely lexical, so callers that bind and rewrite SQL
/// themselves (serve::Session) can reuse their pipeline on `*rest`.
StatementKind StripExplain(const std::string& sql, std::string* rest);

/// ParseSelect plus the EXPLAIN / EXPLAIN ANALYZE prefix.
common::Result<ParsedStatement> ParseStatement(const std::string& sql);

}  // namespace ppp::parser

#endif  // PPP_PARSER_PARSER_H_

#ifndef PPP_SUBQUERY_REWRITE_H_
#define PPP_SUBQUERY_REWRITE_H_

#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "plan/query_spec.h"
#include "types/value.h"

namespace ppp::subquery {

/// Rewrites every `x IN (SELECT ...)` predicate in `spec` into a call to a
/// synthesized expensive boolean function — the paper's treatment of
/// (correlated) SQL subqueries as expensive selections (§1, §5.1).
///
/// The synthesized function:
///  * belongs to the call expression that invokes it (Expr::function), so
///    to the plan; the catalog's registry is never touched;
///  * is named `__subq_<hex>`, a hash of the subquery's bound text
///    (literals included) and its correlation columns, so one subquery
///    has one name — and one fingerprint, one EXPLAIN text and one shared
///    §5.1 cache — across compiles (sharing the cache assumes its tables
///    are read-only, as they are after load);
///  * takes the needle value plus one argument per correlated outer
///    column, so the §5.1 predicate cache is keyed on exactly those
///    inputs — the paper's `(student.mother, student.dept)` example;
///  * declares a per-call cost equal to the optimizer's estimate for the
///    subquery (the placement algorithms then weigh it like any expensive
///    predicate);
///  * plans and executes the subquery against the live database on every
///    invocation; only the §5.1 cache (under its usual knobs) saves
///    repeats. Its real I/O is counted by the buffer pool, so
///    charge_invocations is false (no double billing).
///
/// Appends the (table, stats epoch) of every table the subqueries read to
/// spec->subquery_tables.
common::Status RewriteSubqueries(plan::QuerySpec* spec,
                                 catalog::Catalog* catalog);

/// Convenience: parse + bind + rewrite subqueries.
common::Result<plan::QuerySpec> ParseBindRewrite(const std::string& sql,
                                                 catalog::Catalog* catalog);

/// ParseBindRewrite over a parameterized statement: `$n` placeholders in
/// `sql` become slot-carrying constants bound to params[n - 1] (see
/// parser::ParseSelect's parameterized overload).
common::Result<plan::QuerySpec> ParseBindRewrite(
    const std::string& sql, const std::vector<types::Value>& params,
    catalog::Catalog* catalog);

}  // namespace ppp::subquery

#endif  // PPP_SUBQUERY_REWRITE_H_

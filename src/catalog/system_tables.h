#ifndef PPP_CATALOG_SYSTEM_TABLES_H_
#define PPP_CATALOG_SYSTEM_TABLES_H_

namespace ppp::catalog {

class Catalog;

/// Registers the built-in introspection tables on `catalog` (called by the
/// Catalog constructor):
///
///   ppp_query_log      one row per executed query (obs::QueryLog ring)
///   ppp_metrics        the registry's counters/gauges/histograms, flat
///   ppp_spans          the span tracer's buffer (trace↔log via query_id)
///   ppp_table_stats    per-column TableStatistics of analyzed base tables
///   ppp_operator_audit per-operator est-vs-actual records (obs::PlanAudit)
///   ppp_plan_history   per (text_hash, fingerprint) execution aggregates
///                      with plan-change/regression flags (obs::PlanHistory)
///
/// All six are read-only virtual tables: rows are materialized from live
/// engine state at scan open, so a query sees one consistent snapshot.
/// ppp_table_stats is the only one needing the catalog itself; it holds a
/// back-pointer, which is safe because the catalog owns the table.
void RegisterBuiltinSystemTables(Catalog* catalog);

}  // namespace ppp::catalog

#endif  // PPP_CATALOG_SYSTEM_TABLES_H_

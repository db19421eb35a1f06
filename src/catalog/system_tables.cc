#include "catalog/system_tables.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/table.h"
#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/plan_audit.h"
#include "obs/plan_history.h"
#include "obs/query_log.h"
#include "obs/span.h"
#include "stats/table_stats.h"
#include "types/tuple.h"
#include "types/value.h"

namespace ppp::catalog {

namespace {

using types::TypeId;
using types::Tuple;
using types::Value;

/// Hashes are full uint64s; int64 columns would flip sign on half of them,
/// so they surface as fixed-width hex strings (also how EXPLAIN prints
/// fingerprints, keeping the two joinable by eye).
Value HexValue(uint64_t h) {
  return Value(common::StringPrintf("%016llx",
                                    static_cast<unsigned long long>(h)));
}

Value IntValue(uint64_t v) { return Value(static_cast<int64_t>(v)); }

common::Result<std::vector<Tuple>> QueryLogRows() {
  std::vector<Tuple> rows;
  const std::vector<obs::QueryLogRecord> records =
      obs::QueryLog::Global().Snapshot();
  rows.reserve(records.size());
  for (const obs::QueryLogRecord& r : records) {
    rows.emplace_back(std::vector<Value>{
        IntValue(r.query_id), IntValue(r.session_id), HexValue(r.text_hash),
        HexValue(r.plan_fingerprint), Value(r.algorithm),
        Value(r.wall_seconds), Value(r.optimize_seconds),
        Value(r.execute_seconds), IntValue(r.rows_in), IntValue(r.rows_out),
        IntValue(r.udf_invocations), IntValue(r.cache_hits),
        IntValue(r.transfer_pruned), IntValue(r.drift_flags),
        Value(std::string(obs::StatsTierName(r.stats_tier))),
        Value(r.bucket), IntValue(r.plan_changed ? 1 : 0),
        IntValue(r.plan_regressed ? 1 : 0)});
  }
  return rows;
}

common::Result<std::vector<Tuple>> OperatorAuditRows() {
  std::vector<Tuple> rows;
  const std::vector<obs::OperatorAuditRecord> records =
      obs::PlanAudit::Global().Snapshot();
  rows.reserve(records.size());
  for (const obs::OperatorAuditRecord& r : records) {
    rows.emplace_back(std::vector<Value>{
        IntValue(r.query_id), Value(r.path), Value(r.op), Value(r.est_rows),
        IntValue(r.actual_rows),
        r.qerror > 0.0 ? Value(r.qerror) : Value::Null(),
        Value(r.inclusive_seconds), IntValue(r.udf_invocations)});
  }
  return rows;
}

common::Result<std::vector<Tuple>> PlanHistoryRows() {
  std::vector<Tuple> rows;
  const std::vector<obs::PlanHistoryEntry> entries =
      obs::PlanHistory::Global().Snapshot();
  rows.reserve(entries.size());
  for (const obs::PlanHistoryEntry& e : entries) {
    rows.emplace_back(std::vector<Value>{
        HexValue(e.text_hash), HexValue(e.plan_fingerprint),
        IntValue(e.executions), Value(e.wall_mean), Value(e.wall_p95),
        IntValue(e.total_invocations), Value(e.max_qerror),
        IntValue(e.first_query_id), IntValue(e.last_query_id),
        IntValue(e.plan_changed ? 1 : 0), IntValue(e.regressed ? 1 : 0)});
  }
  return rows;
}

common::Result<std::vector<Tuple>> MetricsRows() {
  std::vector<Tuple> rows;
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::Global().Snapshot();
  rows.reserve(snap.counters.size() + snap.gauges.size() +
               snap.histograms.size());
  // One flat relation over all three metric kinds: scalar kinds fill
  // `value` and leave the distribution columns NULL, histograms do the
  // reverse — so `WHERE kind = 'counter'` behaves like the counters map.
  for (const auto& [name, value] : snap.counters) {
    rows.emplace_back(std::vector<Value>{
        Value(std::string("counter")), Value(name),
        Value(static_cast<double>(value)), Value::Null(), Value::Null(),
        Value::Null(), Value::Null(), Value::Null(), Value::Null()});
  }
  for (const auto& [name, value] : snap.gauges) {
    rows.emplace_back(std::vector<Value>{
        Value(std::string("gauge")), Value(name), Value(value), Value::Null(),
        Value::Null(), Value::Null(), Value::Null(), Value::Null(),
        Value::Null()});
  }
  for (const auto& [name, h] : snap.histograms) {
    rows.emplace_back(std::vector<Value>{
        Value(std::string("histogram")), Value(name), Value::Null(),
        IntValue(h.count), Value(h.sum), Value(h.min), Value(h.max),
        Value(h.p50), Value(h.p99)});
  }
  return rows;
}

common::Result<std::vector<Tuple>> SpanRows() {
  std::vector<Tuple> rows;
  const std::vector<obs::SpanEvent> events =
      obs::SpanTracer::Global().Snapshot();
  rows.reserve(events.size());
  for (const obs::SpanEvent& e : events) {
    Value query_id = Value::Null();
    for (const auto& [key, value] : e.args) {
      if (key == "query_id") {
        try {
          query_id = Value(static_cast<int64_t>(std::stoull(value)));
        } catch (...) {
          // Leave NULL: a foreign arg named query_id is not ours.
        }
        break;
      }
    }
    rows.emplace_back(std::vector<Value>{Value(e.name), Value(e.cat),
                                         Value(e.ts_us), Value(e.dur_us),
                                         Value(static_cast<int64_t>(e.tid)),
                                         std::move(query_id)});
  }
  return rows;
}

common::Result<std::vector<Tuple>> TableStatsRows(const Catalog* catalog) {
  std::vector<Tuple> rows;
  for (const std::string& name : catalog->TableNames()) {
    PPP_ASSIGN_OR_RETURN(Table * table, catalog->GetTable(name));
    const std::shared_ptr<const stats::TableStatistics> stats =
        table->collected_stats();
    if (stats == nullptr) continue;  // Never analyzed.
    for (const stats::ColumnDistribution& col : stats->columns) {
      rows.emplace_back(std::vector<Value>{
          Value(name), Value(col.column), IntValue(col.row_count),
          IntValue(col.null_count), Value(col.ndv),
          col.has_range ? Value(col.min_value.ToString()) : Value::Null(),
          col.has_range ? Value(col.max_value.ToString()) : Value::Null(),
          IntValue(col.mcvs.size()), Value(col.mcv_total_frequency),
          IntValue(col.histogram.buckets().size()),
          IntValue(col.sample_rows)});
    }
  }
  return rows;
}

void MustRegister(Catalog* catalog, std::unique_ptr<Table> table) {
  // The built-in schemas are static; a failure here is a programming
  // error, not an input error.
  catalog->RegisterSystemTable(std::move(table)).value();
}

}  // namespace

void RegisterBuiltinSystemTables(Catalog* catalog) {
  MustRegister(
      catalog,
      std::make_unique<Table>(
          "ppp_query_log",
          std::vector<ColumnDef>{{"query_id", TypeId::kInt64},
                                 {"session_id", TypeId::kInt64},
                                 {"text_hash", TypeId::kString},
                                 {"plan_fingerprint", TypeId::kString},
                                 {"algorithm", TypeId::kString},
                                 {"wall_seconds", TypeId::kDouble},
                                 {"optimize_seconds", TypeId::kDouble},
                                 {"execute_seconds", TypeId::kDouble},
                                 {"rows_in", TypeId::kInt64},
                                 {"rows_out", TypeId::kInt64},
                                 {"udf_invocations", TypeId::kInt64},
                                 {"cache_hits", TypeId::kInt64},
                                 {"transfer_pruned", TypeId::kInt64},
                                 {"drift_flags", TypeId::kInt64},
                                 {"stats_tier", TypeId::kString},
                                 {"bucket", TypeId::kInt64},
                                 {"plan_changed", TypeId::kInt64},
                                 {"plan_regressed", TypeId::kInt64}},
          QueryLogRows,
          [] {
            return static_cast<int64_t>(obs::QueryLog::Global().size());
          }));

  MustRegister(
      catalog,
      std::make_unique<Table>(
          "ppp_metrics",
          std::vector<ColumnDef>{{"kind", TypeId::kString},
                                 {"name", TypeId::kString},
                                 {"value", TypeId::kDouble},
                                 {"count", TypeId::kInt64},
                                 {"sum", TypeId::kDouble},
                                 {"min", TypeId::kDouble},
                                 {"max", TypeId::kDouble},
                                 {"p50", TypeId::kDouble},
                                 {"p99", TypeId::kDouble}},
          MetricsRows,
          [] {
            // Counters dominate the registry; good enough for costing.
            return static_cast<int64_t>(
                obs::MetricsRegistry::Global().SnapshotCounters().size());
          }));

  MustRegister(catalog,
               std::make_unique<Table>(
                   "ppp_spans",
                   std::vector<ColumnDef>{{"name", TypeId::kString},
                                          {"cat", TypeId::kString},
                                          {"ts_us", TypeId::kDouble},
                                          {"dur_us", TypeId::kDouble},
                                          {"tid", TypeId::kInt64},
                                          {"query_id", TypeId::kInt64}},
                   SpanRows, [] {
                     return static_cast<int64_t>(
                         obs::SpanTracer::Global().size());
                   }));

  MustRegister(
      catalog,
      std::make_unique<Table>(
          "ppp_table_stats",
          std::vector<ColumnDef>{{"table_name", TypeId::kString},
                                 {"column_name", TypeId::kString},
                                 {"row_count", TypeId::kInt64},
                                 {"null_count", TypeId::kInt64},
                                 {"ndv", TypeId::kDouble},
                                 {"min_value", TypeId::kString},
                                 {"max_value", TypeId::kString},
                                 {"mcv_count", TypeId::kInt64},
                                 {"mcv_total_frequency", TypeId::kDouble},
                                 {"histogram_buckets", TypeId::kInt64},
                                 {"sample_rows", TypeId::kInt64}},
          [catalog] { return TableStatsRows(catalog); },
          [catalog]() -> int64_t {
            int64_t n = 0;
            for (const std::string& name : catalog->TableNames()) {
              auto table = catalog->GetTable(name);
              if (table.ok() && (*table)->collected_stats() != nullptr) {
                n += static_cast<int64_t>((*table)->columns().size());
              }
            }
            return n;
          }));

  MustRegister(
      catalog,
      std::make_unique<Table>(
          "ppp_operator_audit",
          std::vector<ColumnDef>{{"query_id", TypeId::kInt64},
                                 {"path", TypeId::kString},
                                 {"op", TypeId::kString},
                                 {"est_rows", TypeId::kDouble},
                                 {"actual_rows", TypeId::kInt64},
                                 {"qerror", TypeId::kDouble},
                                 {"inclusive_seconds", TypeId::kDouble},
                                 {"udf_invocations", TypeId::kInt64}},
          OperatorAuditRows,
          [] {
            return static_cast<int64_t>(obs::PlanAudit::Global().size());
          }));

  MustRegister(
      catalog,
      std::make_unique<Table>(
          "ppp_plan_history",
          std::vector<ColumnDef>{{"text_hash", TypeId::kString},
                                 {"plan_fingerprint", TypeId::kString},
                                 {"executions", TypeId::kInt64},
                                 {"wall_mean", TypeId::kDouble},
                                 {"wall_p95", TypeId::kDouble},
                                 {"total_invocations", TypeId::kInt64},
                                 {"max_qerror", TypeId::kDouble},
                                 {"first_query_id", TypeId::kInt64},
                                 {"last_query_id", TypeId::kInt64},
                                 {"plan_changed", TypeId::kInt64},
                                 {"regressed", TypeId::kInt64}},
          PlanHistoryRows, [] {
            return static_cast<int64_t>(obs::PlanHistory::Global().size());
          }));
}

}  // namespace ppp::catalog

// End-to-end introspection: the ppp_* system tables are ordinary relations
// to the parser, binder, optimizer, and executor. Plain SELECTs with
// predicates, aggregates, and joins must work against them, ANALYZE and DML
// must be rejected, and every executed query must leave a ppp_query_log
// record whose counters reflect that execution.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/plan_audit.h"
#include "obs/plan_history.h"
#include "obs/query_log.h"
#include "obs/span.h"
#include "optimizer/optimizer.h"
#include "parser/binder.h"
#include "serve/session.h"
#include "stats/collector.h"
#include "workload/database.h"

namespace ppp {
namespace {

using types::Tuple;
using types::TypeId;
using types::Value;

// The catalog's six built-in tables plus the two the serving layer's
// SessionManager registers.
const char* const kSystemTables[] = {
    "ppp_query_log",   "ppp_metrics",        "ppp_spans",
    "ppp_table_stats", "ppp_operator_audit", "ppp_plan_history",
    "ppp_plan_cache",  "ppp_sessions",
};

class IntrospectTest : public ::testing::Test {
 protected:
  IntrospectTest()
      : db_(128),
        catalog_(db_.catalog()),
        manager_(&db_),
        session_(manager_.CreateSession()) {
    // The backing stores are process globals; start each test clean.
    obs::QueryLog::Global().Clear();
    obs::QueryLog::Global().set_enabled(true);
    obs::PlanAudit::Global().Clear();
    obs::PlanAudit::Global().set_enabled(true);
    obs::PlanHistory::Global().Clear();
    obs::PlanHistory::Global().set_enabled(true);
    obs::SpanTracer::Global().set_enabled(false);
    obs::SpanTracer::Global().Clear();

    auto table = catalog_.CreateTable(
        "t", {{"grp", TypeId::kInt64}, {"val", TypeId::kInt64}});
    EXPECT_TRUE(table.ok());
    for (int64_t i = 0; i < 50; ++i) {
      EXPECT_TRUE((*table)->Insert(Tuple({Value(i % 4), Value(i)})).ok());
    }
    EXPECT_TRUE(
        catalog_.functions().RegisterCostlyPredicate("pricey", 10, 0.5)
            .ok());
  }

  ~IntrospectTest() override {
    obs::QueryLog::Global().Clear();
    obs::PlanAudit::Global().Clear();
    obs::PlanHistory::Global().Clear();
    obs::SpanTracer::Global().set_enabled(false);
    obs::SpanTracer::Global().Clear();
  }

  /// Runs one statement through the session (the migration algorithm, the
  /// session default), which files its log, audit and history records.
  std::vector<Tuple> Run(const std::string& sql) {
    auto result = session_->Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status();
    return result.ok() ? std::move(result->rows) : std::vector<Tuple>{};
  }

  workload::Database db_;
  catalog::Catalog& catalog_;
  serve::SessionManager manager_;
  std::unique_ptr<serve::Session> session_;
};

TEST_F(IntrospectTest, CountStarWorksOnEverySystemTable) {
  for (const char* name : kSystemTables) {
    const std::vector<Tuple> rows =
        Run(std::string("SELECT count(*) FROM ") + name);
    ASSERT_EQ(rows.size(), 1u) << name;
    EXPECT_GE(rows[0].Get(0).AsInt64(), 0) << name;
  }
}

TEST_F(IntrospectTest, ExecutedQueriesAppearInTheQueryLog) {
  Run("SELECT count(*) FROM t WHERE t.val < 10");
  const std::vector<Tuple> rows = Run(
      "SELECT ppp_query_log.query_id, ppp_query_log.rows_out, "
      "ppp_query_log.stats_tier FROM ppp_query_log "
      "WHERE ppp_query_log.algorithm = 'PredicateMigration'");
  ASSERT_GE(rows.size(), 1u);
  // The first logged query returned one aggregate row off 50 scanned.
  EXPECT_GT(rows[0].Get(0).AsInt64(), 0);
  EXPECT_EQ(rows[0].Get(1).AsInt64(), 1);
  EXPECT_EQ(rows[0].Get(2).AsString(), "declared");
}

TEST_F(IntrospectTest, QueryLogCountersReflectTheExecution) {
  Run("SELECT t.val FROM t WHERE pricey(t.val)");
  const std::vector<Tuple> rows = Run(
      "SELECT ppp_query_log.udf_invocations, ppp_query_log.rows_in "
      "FROM ppp_query_log WHERE ppp_query_log.udf_invocations > 0");
  ASSERT_EQ(rows.size(), 1u);
  // The expensive predicate ran at least once; leaf rows_out is
  // post-filter when placement pushes the predicate into the scan, so it
  // is bounded by the table, not equal to it.
  EXPECT_GT(rows[0].Get(0).AsInt64(), 0);
  EXPECT_GT(rows[0].Get(1).AsInt64(), 0);
  EXPECT_LE(rows[0].Get(1).AsInt64(), 50);
}

TEST_F(IntrospectTest, ExecutedOperatorsAppearInTheAuditTable) {
  Run("SELECT t.val FROM t WHERE pricey(t.val)");
  // Every executed operator left one audit row; the scan's UDF bill is
  // attributed to the node that ran the predicate.
  const std::vector<Tuple> rows = Run(
      "SELECT ppp_operator_audit.path, ppp_operator_audit.op, "
      "ppp_operator_audit.actual_rows, ppp_operator_audit.udf_invocations "
      "FROM ppp_operator_audit "
      "WHERE ppp_operator_audit.udf_invocations > 0");
  ASSERT_GE(rows.size(), 1u);
  EXPECT_EQ(rows[0].Get(0).AsString().substr(0, 1), "0");  // Root-anchored.
  EXPECT_GT(rows[0].Get(3).AsInt64(), 0);
}

TEST_F(IntrospectTest, RepeatedQueriesAggregateInThePlanHistory) {
  // Both runs normalize to one text hash.
  Run("SELECT count(*) FROM t");
  Run("SELECT count(*) FROM t");
  // One plan, two executions; the same-fingerprint rerun is no change.
  const std::vector<Tuple> rows = Run(
      "SELECT ppp_plan_history.executions, ppp_plan_history.plan_changed, "
      "ppp_plan_history.regressed FROM ppp_plan_history");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].Get(0).AsInt64(), 2);
  EXPECT_EQ(rows[0].Get(1).AsInt64(), 0);
  EXPECT_EQ(rows[0].Get(2).AsInt64(), 0);
  // The query log exposes the same verdicts per execution.
  const std::vector<Tuple> log = Run(
      "SELECT count(*) FROM ppp_query_log "
      "WHERE ppp_query_log.plan_changed = 0");
  ASSERT_EQ(log.size(), 1u);
  EXPECT_GE(log[0].Get(0).AsInt64(), 2);
}

TEST_F(IntrospectTest, AggregatesAndPredicatesComposeOverTheLog) {
  for (int i = 0; i < 3; ++i) Run("SELECT count(*) FROM t");
  const std::vector<Tuple> rows = Run(
      "SELECT ppp_query_log.algorithm, count(*), "
      "sum(ppp_query_log.wall_seconds) FROM ppp_query_log "
      "WHERE ppp_query_log.rows_out >= 0 "
      "GROUP BY ppp_query_log.algorithm");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].Get(0).AsString(), "PredicateMigration");
  // 3 loads plus the introspection queries run before this one.
  EXPECT_GE(rows[0].Get(1).AsInt64(), 3);
  EXPECT_GE(rows[0].Get(2).AsDouble(), 0.0);
}

TEST_F(IntrospectTest, SelfJoinSeesOneConsistentSnapshot) {
  for (int i = 0; i < 4; ++i) Run("SELECT count(*) FROM t");
  // Both sides materialize the same log contents: the record of the join
  // query itself is only appended at close, after the scans opened.
  const std::vector<Tuple> diag = Run("SELECT count(*) FROM ppp_query_log");
  ASSERT_EQ(diag.size(), 1u);
  const int64_t n = diag[0].Get(0).AsInt64();
  const std::vector<Tuple> rows = Run(
      "SELECT count(*) FROM ppp_query_log a, ppp_query_log b "
      "WHERE a.query_id = b.query_id");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].Get(0).AsInt64(), n + 1);  // +1: the count query above.
}

TEST_F(IntrospectTest, MetricsTableExposesCountersWithStringPredicates) {
  Run("SELECT count(*) FROM t");  // Touches exec counters.
  const std::vector<Tuple> rows = Run(
      "SELECT ppp_metrics.name, ppp_metrics.value FROM ppp_metrics "
      "WHERE ppp_metrics.kind = 'counter'");
  ASSERT_GE(rows.size(), 1u);
  bool saw_batches = false;
  for (const Tuple& row : rows) {
    if (row.Get(0).AsString() == "exec.batches") saw_batches = true;
  }
  EXPECT_TRUE(saw_batches);
}

TEST_F(IntrospectTest, QueryLogGroupsByBucketIntoPerSecondCounters) {
  // GROUP BY bucket turns the log's exact per-query counters into
  // per-second totals. Which seconds the queries land in is
  // timing-dependent; the per-bucket sums must add up to the log's totals
  // either way, and the self-join on bucket must plan and run like any
  // equi-join.
  Run("SELECT count(*) FROM t WHERE pricey(t.val)");
  Run("SELECT count(*) FROM t WHERE t.val < 25 AND pricey(t.grp)");
  const std::vector<Tuple> buckets = Run(
      "SELECT ppp_query_log.bucket, count(*), "
      "sum(ppp_query_log.udf_invocations) FROM ppp_query_log "
      "GROUP BY ppp_query_log.bucket");
  ASSERT_GE(buckets.size(), 1u);
  ASSERT_LE(buckets.size(), 2u);
  int64_t queries = 0;
  int64_t invocations = 0;
  for (const Tuple& row : buckets) {
    EXPECT_GE(row.Get(0).AsInt64(), 0);
    queries += row.Get(1).AsInt64();
    invocations += static_cast<int64_t>(row.Get(2).AsNumeric());
  }
  EXPECT_EQ(queries, 2);
  int64_t logged = 0;
  for (const obs::QueryLogRecord& r : obs::QueryLog::Global().Snapshot()) {
    logged += static_cast<int64_t>(r.udf_invocations);
  }
  EXPECT_GT(invocations, 0);
  EXPECT_EQ(invocations, logged);

  const std::vector<Tuple> pairs = Run(
      "SELECT a.query_id, b.query_id FROM ppp_query_log a, ppp_query_log b "
      "WHERE a.bucket = b.bucket");
  // Every record pairs with itself at least; three records are logged by
  // now (the GROUP BY above closed before this scan opened).
  EXPECT_GE(pairs.size(), 3u);
  EXPECT_LE(pairs.size(), 9u);
}

TEST_F(IntrospectTest, SpansTableCarriesTheQueryId) {
  obs::SpanTracer::Global().set_enabled(true);
  Run("SELECT count(*) FROM t");
  const std::vector<Tuple> rows = Run(
      "SELECT ppp_spans.name, ppp_spans.query_id FROM ppp_spans "
      "WHERE ppp_spans.query_id > 0");
  obs::SpanTracer::Global().set_enabled(false);
  ASSERT_GE(rows.size(), 1u);
}

TEST_F(IntrospectTest, TableStatsTableReflectsAnalyzedColumns) {
  EXPECT_TRUE(
      stats::AnalyzeTable(*catalog_.GetTable("t"), {}).ok());
  const std::vector<Tuple> rows = Run(
      "SELECT ppp_table_stats.column_name, ppp_table_stats.row_count "
      "FROM ppp_table_stats WHERE ppp_table_stats.table_name = 't'");
  ASSERT_EQ(rows.size(), 2u);  // grp and val.
  for (const Tuple& row : rows) {
    EXPECT_EQ(row.Get(1).AsInt64(), 50);
  }
}

TEST_F(IntrospectTest, ExpensivePredicatePlacementIsNormalOnSystemTables) {
  auto spec = parser::ParseAndBind(
      "SELECT ppp_query_log.query_id FROM ppp_query_log "
      "WHERE pricey(ppp_query_log.query_id) AND ppp_query_log.rows_out >= 0",
      catalog_);
  ASSERT_TRUE(spec.ok()) << spec.status();
  optimizer::Optimizer opt(&catalog_, {});
  auto result = opt.Optimize(*spec, optimizer::Algorithm::kMigration);
  ASSERT_TRUE(result.ok()) << result.status();
  const std::string plan = result->plan->ToString();
  EXPECT_NE(plan.find("ppp_query_log"), std::string::npos) << plan;
  EXPECT_NE(plan.find("pricey"), std::string::npos) << plan;
}

TEST_F(IntrospectTest, SystemTablesRejectDdlDmlAndAnalyze) {
  // CREATE TABLE may not squat on the system prefix.
  auto created = catalog_.CreateTable("ppp_mine", {{"a", TypeId::kInt64}});
  EXPECT_FALSE(created.ok());

  catalog::Table* log_table = *catalog_.GetTable("ppp_query_log");
  EXPECT_FALSE(log_table->Insert(Tuple({Value(int64_t{1})})).ok());
  EXPECT_FALSE(log_table->Analyze().ok());
  EXPECT_FALSE(stats::AnalyzeTable(log_table, {}).ok());
  EXPECT_EQ(log_table->collected_stats(), nullptr);

  // ANALYZE-all walks base tables only, so it stays green.
  EXPECT_TRUE(stats::AnalyzeAll(&catalog_, {}).ok());
  const std::vector<std::string> names = catalog_.TableNames();
  EXPECT_EQ(std::count_if(names.begin(), names.end(),
                          [](const std::string& n) {
                            return n.rfind("ppp_", 0) == 0;
                          }),
            0);
}

TEST_F(IntrospectTest, SystemTableNamesListsAllSorted) {
  const std::vector<std::string> names = catalog_.SystemTableNames();
  ASSERT_EQ(names.size(), std::size(kSystemTables));
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  for (const char* name : kSystemTables) {
    EXPECT_NE(std::find(names.begin(), names.end(), name), names.end())
        << name;
  }
}

TEST_F(IntrospectTest, DisablingTheLogStopsRecordsNotQueries) {
  obs::QueryLog::Global().set_enabled(false);
  Run("SELECT count(*) FROM t");
  EXPECT_EQ(obs::QueryLog::Global().size(), 0u);
  obs::QueryLog::Global().set_enabled(true);
  const std::vector<Tuple> rows = Run("SELECT count(*) FROM ppp_query_log");
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].Get(0).AsInt64(), 0);  // Snapshot taken before close.
}

}  // namespace
}  // namespace ppp

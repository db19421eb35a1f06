#include <gtest/gtest.h>

#include "obs/trace.h"
#include "serve/session.h"
#include "workload/database.h"
#include "workload/measurement.h"
#include "workload/queries.h"
#include "workload/schema_gen.h"

namespace ppp {
namespace {

class OptTraceQueryTest : public ::testing::Test {
 protected:
  OptTraceQueryTest() {
    config_.scale = 300;
    config_.table_numbers = {3, 6, 10};
    EXPECT_TRUE(workload::LoadBenchmarkDatabase(&db_, config_).ok());
    EXPECT_TRUE(workload::RegisterBenchmarkFunctions(&db_).ok());
  }

  workload::Measurement Run(const std::string& id,
                            optimizer::Algorithm algorithm,
                            obs::OptTrace* trace) {
    auto sql = workload::BenchmarkSql(config_, id);
    EXPECT_TRUE(sql.ok()) << sql.status();
    serve::SessionManager manager(&db_);
    serve::SessionOptions options;
    options.algorithm = algorithm;
    auto session = manager.CreateSession(options);
    auto m = workload::Measure(&db_, session.get(), "EXPLAIN " + *sql, trace);
    EXPECT_TRUE(m.ok()) << m.status();
    return m.ok() ? *m : workload::Measurement{};
  }

  workload::Database db_;
  workload::BenchmarkConfig config_;
};

TEST_F(OptTraceQueryTest, MigrationGroupRanksAreNonDecreasing) {
  // §4.4: after composing out-of-order joins into groups, group ranks
  // along every stream are non-decreasing going up — the series-parallel
  // invariant. Q4 is built to force a composition on the t3 stream.
  obs::OptTrace trace;
  Run("Q4", optimizer::Algorithm::kMigration, &trace);
  const auto groups = trace.Find("migration.groups");
  ASSERT_FALSE(groups.empty());
  for (const obs::TraceEntry* entry : groups) {
    for (size_t i = 1; i < entry->values.size(); ++i) {
      EXPECT_GE(entry->values[i], entry->values[i - 1])
          << entry->detail << " at group " << i;
    }
  }
}

TEST_F(OptTraceQueryTest, DpStatsCountEnumeration) {
  obs::OptTrace trace;
  const workload::Measurement m =
      Run("Q4", optimizer::Algorithm::kMigration, &trace);
  EXPECT_GT(m.dp_stats.subplans_generated, 0u);
  EXPECT_GT(m.dp_stats.subplans_retained, 0u);
  EXPECT_GE(m.dp_stats.subplans_generated, m.dp_stats.subplans_retained);
  // The enumerator announces its totals once per run.
  EXPECT_EQ(trace.Find("dp.summary").size(), 1u);
}

TEST_F(OptTraceQueryTest, ExhaustiveNeverPrunes) {
  obs::OptTrace trace;
  const workload::Measurement m =
      Run("Q1", optimizer::Algorithm::kExhaustive, &trace);
  EXPECT_EQ(m.dp_stats.subplans_pruned, 0u);
  EXPECT_TRUE(trace.Find("dp.prune").empty());
}

TEST_F(OptTraceQueryTest, PruningAlgorithmsRecordPrunes) {
  obs::OptTrace trace;
  const workload::Measurement m =
      Run("Q4", optimizer::Algorithm::kPushDown, &trace);
  EXPECT_GT(m.dp_stats.subplans_pruned, 0u);
  EXPECT_EQ(trace.Find("dp.prune").size(), m.dp_stats.subplans_pruned);
}

TEST_F(OptTraceQueryTest, PullRankTracesHoists) {
  // Q1's costly100 on t10 has rank below the join's, so PullRank hoists
  // it above the join and the trace records the decision.
  obs::OptTrace trace;
  Run("Q1", optimizer::Algorithm::kPullRank, &trace);
  const auto hoists = trace.Find("pullrank.hoist");
  ASSERT_FALSE(hoists.empty());
  for (const obs::TraceEntry* entry : hoists) {
    // Each hoist records {predicate rank, stream rank}.
    ASSERT_EQ(entry->values.size(), 2u);
  }
}

TEST_F(OptTraceQueryTest, TracingDoesNotChangeTheChosenPlan) {
  obs::OptTrace trace;
  const workload::Measurement traced =
      Run("Q4", optimizer::Algorithm::kMigration, &trace);
  ASSERT_FALSE(trace.empty());
  // A plain SELECT optimizes on the plan-cache miss path, untraced.
  auto sql = workload::BenchmarkSql(config_, "Q4");
  ASSERT_TRUE(sql.ok()) << sql.status();
  serve::SessionManager manager(&db_);
  auto session = manager.CreateSession();
  auto untraced = session->Execute(*sql);
  ASSERT_TRUE(untraced.ok()) << untraced.status();
  EXPECT_EQ(traced.plan_text, untraced->plan->ToString());
  EXPECT_DOUBLE_EQ(traced.est_cost, untraced->est_cost);
}

}  // namespace
}  // namespace ppp

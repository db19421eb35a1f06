#include <gtest/gtest.h>

#include "parser/binder.h"
#include "serve/session.h"
#include "workload/database.h"
#include "workload/measurement.h"
#include "workload/queries.h"
#include "workload/schema_gen.h"

namespace ppp::workload {
namespace {

class WorkloadTest : public ::testing::Test {
 protected:
  WorkloadTest() {
    config_.scale = 300;
    config_.table_numbers = {1, 3, 9, 10};
    EXPECT_TRUE(LoadBenchmarkDatabase(&db_, config_).ok());
    EXPECT_TRUE(RegisterBenchmarkFunctions(&db_).ok());
  }

  Database db_;
  BenchmarkConfig config_;
};

TEST_F(WorkloadTest, TablesHaveScaledCardinalities) {
  for (const int k : config_.table_numbers) {
    auto table = db_.catalog().GetTable("t" + std::to_string(k));
    ASSERT_TRUE(table.ok());
    EXPECT_EQ((*table)->NumTuples(), k * config_.scale);
  }
}

TEST_F(WorkloadTest, TuplesAreAbout100Bytes) {
  auto table = db_.catalog().GetTable("t10");
  ASSERT_TRUE(table.ok());
  const double width = static_cast<double>((*table)->NumPages()) *
                       storage::kPageSize /
                       static_cast<double>((*table)->NumTuples());
  EXPECT_GT(width, 90);
  EXPECT_LT(width, 130);
}

TEST_F(WorkloadTest, IndexConventionFollowsNames) {
  auto table = db_.catalog().GetTable("t3");
  ASSERT_TRUE(table.ok());
  for (const char* indexed : {"a", "a1", "a10", "a20"}) {
    EXPECT_TRUE((*table)->HasIndex(indexed)) << indexed;
  }
  for (const char* unindexed : {"ua", "ua1", "u10", "u100", "pad"}) {
    EXPECT_FALSE((*table)->HasIndex(unindexed)) << unindexed;
  }
}

TEST_F(WorkloadTest, DuplicationFactorsMatchNames) {
  auto table = db_.catalog().GetTable("t10");
  ASSERT_TRUE(table.ok());
  const int64_t n = (*table)->NumTuples();
  // `a` and `ua` are exactly unique.
  EXPECT_EQ((*table)->GetColumnStats("a").num_distinct, n);
  EXPECT_EQ((*table)->GetColumnStats("ua").num_distinct, n);
  // `ua1` ~ uniform draws from [0, 0.9 n): distinct ≈ 0.9(1 - e^{-1/0.9}) n.
  const double ua1 =
      static_cast<double>((*table)->GetColumnStats("ua1").num_distinct);
  EXPECT_NEAR(ua1 / static_cast<double>(n), 0.604, 0.03);
  // `u10`: domain n/10, nearly all values hit.
  const double u10 =
      static_cast<double>((*table)->GetColumnStats("u10").num_distinct);
  EXPECT_NEAR(u10 / (static_cast<double>(n) / 10.0), 1.0, 0.02);
}

TEST_F(WorkloadTest, PaperPropertyT9HasMoreValuesThanT10Ua1) {
  // The linchpin of Q2 (§4.2): d(t9.ua) > d(t10.ua1) while
  // d(t3.ua) < d(t10.ua1).
  auto t3 = db_.catalog().GetTable("t3");
  auto t9 = db_.catalog().GetTable("t9");
  auto t10 = db_.catalog().GetTable("t10");
  ASSERT_TRUE(t3.ok());
  ASSERT_TRUE(t9.ok());
  ASSERT_TRUE(t10.ok());
  const int64_t t10_ua1 = (*t10)->GetColumnStats("ua1").num_distinct;
  EXPECT_GT((*t9)->GetColumnStats("ua").num_distinct, t10_ua1);
  EXPECT_LT((*t3)->GetColumnStats("ua").num_distinct, t10_ua1);
}

TEST_F(WorkloadTest, GenerationIsDeterministic) {
  Database other;
  ASSERT_TRUE(LoadBenchmarkDatabase(&other, config_).ok());
  auto a = db_.catalog().GetTable("t3");
  auto b = other.catalog().GetTable("t3");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ((*a)->GetColumnStats("ua1").num_distinct,
            (*b)->GetColumnStats("ua1").num_distinct);
}

TEST_F(WorkloadTest, BenchmarkFunctionsRegistered) {
  const auto& fns = db_.catalog().functions();
  for (const char* name :
       {"costly1", "costly10", "costly100", "costly1000", "match100"}) {
    EXPECT_TRUE(fns.Contains(name)) << name;
  }
  EXPECT_DOUBLE_EQ((*fns.Lookup("costly100"))->cost_per_call, 100);
}

TEST_F(WorkloadTest, AllQueriesBindAgainstFullDatabase) {
  Database full;
  BenchmarkConfig config;
  config.scale = 100;
  ASSERT_TRUE(LoadBenchmarkDatabase(&full, config).ok());
  ASSERT_TRUE(RegisterBenchmarkFunctions(&full).ok());
  for (const BenchmarkQuery& q : BenchmarkQueries(config)) {
    auto spec = GetBenchmarkQuery(full, config, q.id);
    EXPECT_TRUE(spec.ok()) << q.id << ": " << spec.status();
  }
  EXPECT_FALSE(GetBenchmarkQuery(full, config, "Q99").ok());
}

TEST_F(WorkloadTest, ChargedTimeCombinesIoAndUdf) {
  exec::ExecStats stats;
  stats.io.sequential_reads = 100;
  stats.io.random_reads = 50;
  stats.invocations["costly100"] = 7;
  cost::CostParams params;
  double io = 0;
  double udf = 0;
  const double total = ChargedTime(stats, db_.catalog().functions(), params,
                                   &io, &udf);
  EXPECT_DOUBLE_EQ(io, 150);
  EXPECT_DOUBLE_EQ(udf, 700);
  EXPECT_DOUBLE_EQ(total, 850);
}

TEST_F(WorkloadTest, UnknownFunctionInStatsIsIgnored) {
  exec::ExecStats stats;
  stats.invocations["not_registered"] = 100;
  const double total =
      ChargedTime(stats, db_.catalog().functions(), {}, nullptr, nullptr);
  EXPECT_DOUBLE_EQ(total, 0);
}

TEST_F(WorkloadTest, CanonicalResultsSortsAndSerializes) {
  using types::Tuple;
  using types::Value;
  std::vector<Tuple> rows = {Tuple({Value(int64_t{2})}),
                             Tuple({Value(int64_t{1})})};
  const std::vector<std::string> canon = CanonicalResults(rows);
  ASSERT_EQ(canon.size(), 2u);
  EXPECT_LE(canon[0], canon[1]);
}

TEST_F(WorkloadTest, MeasureExplainAnalyzeProducesMeasurement) {
  auto sql = BenchmarkSql(config_, "Q1");
  ASSERT_TRUE(sql.ok());
  serve::SessionManager manager(&db_);
  auto session = manager.CreateSession();
  session->options().algorithm = optimizer::Algorithm::kPushDown;
  auto m = Measure(&db_, session.get(), "EXPLAIN ANALYZE " + *sql);
  ASSERT_TRUE(m.ok()) << m.status();
  EXPECT_GT(m->charged_time, 0);
  EXPECT_GT(m->est_cost, 0);
  EXPECT_FALSE(m->plan_text.empty());
  EXPECT_GT(m->invocations.at("costly100"), 0u);
}

TEST_F(WorkloadTest, OptimizeOnlySkipsExecution) {
  auto sql = BenchmarkSql(config_, "Q1");
  ASSERT_TRUE(sql.ok());
  serve::SessionManager manager(&db_);
  auto session = manager.CreateSession();
  auto m = Measure(&db_, session.get(), "EXPLAIN " + *sql);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->charged_time, 0);
  EXPECT_GT(m->est_cost, 0);
}

}  // namespace
}  // namespace ppp::workload

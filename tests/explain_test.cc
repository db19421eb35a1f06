#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "exec/executor.h"
#include "obs/profiler.h"
#include "optimizer/optimizer.h"
#include "parser/binder.h"
#include "parser/parser.h"
#include "serve/session.h"
#include "stats/collector.h"
#include "workload/database.h"
#include "workload/measurement.h"
#include "workload/queries.h"
#include "workload/schema_gen.h"

namespace ppp {
namespace {

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    if (end > start) lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

class ExplainTest : public ::testing::Test {
 protected:
  ExplainTest() {
    config_.scale = 300;
    config_.table_numbers = {3, 6, 10};
    EXPECT_TRUE(workload::LoadBenchmarkDatabase(&db_, config_).ok());
    EXPECT_TRUE(workload::RegisterBenchmarkFunctions(&db_).ok());
  }

  /// Measures `statement`, an EXPLAIN [ANALYZE], on a fresh session.
  workload::Measurement MeasureOn(
      const std::string& statement,
      optimizer::Algorithm algorithm = optimizer::Algorithm::kMigration,
      const cost::CostParams& cost_params = {}) {
    serve::SessionManager manager(&db_);
    serve::SessionOptions options;
    options.algorithm = algorithm;
    options.cost_params = cost_params;
    auto session = manager.CreateSession(options);
    auto m = workload::Measure(&db_, session.get(), statement);
    EXPECT_TRUE(m.ok()) << m.status();
    return m.ok() ? *m : workload::Measurement{};
  }

  workload::Measurement Run(const std::string& id,
                            optimizer::Algorithm algorithm, bool execute) {
    auto sql = workload::BenchmarkSql(config_, id);
    EXPECT_TRUE(sql.ok()) << sql.status();
    return MeasureOn((execute ? "EXPLAIN ANALYZE " : "EXPLAIN ") + *sql,
                     algorithm);
  }

  workload::Database db_;
  workload::BenchmarkConfig config_;
};

TEST_F(ExplainTest, PlainExplainHasNoActuals) {
  const workload::Measurement m =
      Run("Q1", optimizer::Algorithm::kMigration, /*execute=*/false);
  EXPECT_FALSE(m.explain_text.empty());
  EXPECT_EQ(m.explain_text, m.plan_text);
  EXPECT_EQ(m.explain_text.find("actual"), std::string::npos);
}

TEST_F(ExplainTest, AnalyzeAnnotatesEveryOperatorLine) {
  const workload::Measurement m =
      Run("Q1", optimizer::Algorithm::kMigration, /*execute=*/true);
  const std::vector<std::string> plain = SplitLines(m.plan_text);
  const std::vector<std::string> analyzed = SplitLines(m.explain_text);
  // Same tree shape, one line per plan node.
  ASSERT_EQ(analyzed.size(), plain.size());
  for (const std::string& line : analyzed) {
    EXPECT_NE(line.find("actual rows="), std::string::npos) << line;
    EXPECT_NE(line.find("io seq="), std::string::npos) << line;
  }
}

TEST_F(ExplainTest, RootActualRowsMatchOutputRows) {
  const workload::Measurement m =
      Run("Q1", optimizer::Algorithm::kPushDown, /*execute=*/true);
  const std::vector<std::string> lines = SplitLines(m.explain_text);
  ASSERT_FALSE(lines.empty());
  const size_t pos = lines[0].find("actual rows=");
  ASSERT_NE(pos, std::string::npos);
  const uint64_t rows =
      std::stoull(lines[0].substr(pos + std::string("actual rows=").size()));
  EXPECT_EQ(rows, m.output_rows);
}

TEST_F(ExplainTest, ExpensiveFilterReportsCacheStats) {
  // Q4's costly100(t3.ua) filter carries a predicate cache; EXPLAIN
  // ANALYZE must surface its hit/entry/eviction counters.
  const workload::Measurement m =
      Run("Q4", optimizer::Algorithm::kMigration, /*execute=*/true);
  EXPECT_NE(m.explain_text.find("[cache "), std::string::npos);
  EXPECT_NE(m.explain_text.find("hits="), std::string::npos);
  EXPECT_NE(m.explain_text.find("evictions="), std::string::npos);
}

TEST_F(ExplainTest, AnalyzeDoesNotChangeChargedResults) {
  const workload::Measurement analyzed =
      Run("Q1", optimizer::Algorithm::kMigration, /*execute=*/true);
  // The same query as a plain SELECT — no operator tree kept, nothing
  // rendered — on a cold pool and a fresh session with private caches.
  auto sql = workload::BenchmarkSql(config_, "Q1");
  ASSERT_TRUE(sql.ok());
  serve::SessionManager::Options options;
  options.share_predicate_caches = false;
  serve::SessionManager manager(&db_, options);
  auto session = manager.CreateSession();
  db_.pool().FlushAll();
  db_.pool().EvictAll();
  auto bare = session->Execute(*sql);
  ASSERT_TRUE(bare.ok()) << bare.status();
  EXPECT_EQ(analyzed.output_rows, bare->rows.size());
  EXPECT_EQ(analyzed.output_rows, bare->stats.output_rows);
  EXPECT_DOUBLE_EQ(analyzed.charged_time,
                   workload::ChargedTime(bare->stats, db_.catalog().functions(),
                                         session->options().cost_params,
                                         nullptr, nullptr));
}

// ---- Rank-drift annotation (runtime profiler feedback) -------------------

class RankDriftTest : public ExplainTest {
 protected:
  RankDriftTest() {
    obs::PredicateProfiler::Global().Reset();
    obs::PredicateProfiler::Global().set_enabled(true);
    obs::PredicateProfiler::Global().set_drift_threshold(0.5);
  }
  ~RankDriftTest() override {
    obs::PredicateProfiler::Global().Reset();
    obs::PredicateProfiler::Global().set_drift_threshold(0.5);
  }

  workload::Measurement RunSql(const std::string& sql) {
    return MeasureOn("EXPLAIN ANALYZE " + sql);
  }
};

TEST_F(RankDriftTest, MisdeclaredCostFlagsDrift) {
  // Declared 100 I/Os per call, actually ~1 (a 100us sleep at the default
  // 100us-per-I/O conversion): the observed rank is ~100x steeper than the
  // estimate, far beyond any scheduler overshoot.
  catalog::FunctionDef def;
  def.name = "drifty";
  def.cost_per_call = 100.0;
  def.selectivity = 0.5;
  def.impl = [](const std::vector<types::Value>& args) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    return types::Value(args[0].AsInt64() % 2 == 0);
  };
  ASSERT_TRUE(db_.catalog().functions().Register(def).ok());

  const workload::Measurement m =
      RunSql("SELECT * FROM t3 WHERE drifty(t3.ua)");
  EXPECT_NE(m.explain_text.find("rank est="), std::string::npos)
      << m.explain_text;
  EXPECT_NE(m.explain_text.find("obs="), std::string::npos);
  EXPECT_NE(m.explain_text.find("DRIFT"), std::string::npos)
      << m.explain_text;
}

TEST_F(RankDriftTest, AccurateDeclarationStaysClean) {
  // Declared 10 I/Os and 0.5 selectivity; the impl sleeps 1ms (10 I/Os at
  // 100us each) and passes half its inputs. A wide threshold absorbs
  // sleep_for overshoot — the point is that agreeing numbers don't flag.
  obs::PredicateProfiler::Global().set_drift_threshold(0.9);
  catalog::FunctionDef def;
  def.name = "honest";
  def.cost_per_call = 10.0;
  def.selectivity = 0.5;
  def.impl = [](const std::vector<types::Value>& args) {
    std::this_thread::sleep_for(std::chrono::microseconds(1000));
    return types::Value(args[0].AsInt64() % 2 == 0);
  };
  ASSERT_TRUE(db_.catalog().functions().Register(def).ok());

  const workload::Measurement m =
      RunSql("SELECT * FROM t6 WHERE honest(t6.ua)");
  EXPECT_NE(m.explain_text.find("rank est="), std::string::npos)
      << m.explain_text;
  EXPECT_EQ(m.explain_text.find("DRIFT"), std::string::npos)
      << m.explain_text;
}

TEST_F(RankDriftTest, NoProfileDataKeepsExplainClean) {
  obs::PredicateProfiler::Global().set_enabled(false);
  obs::PredicateProfiler::Global().Reset();
  const workload::Measurement m =
      Run("Q4", optimizer::Algorithm::kMigration, /*execute=*/true);
  EXPECT_EQ(m.explain_text.find("rank est="), std::string::npos)
      << m.explain_text;
  obs::PredicateProfiler::Global().set_enabled(true);
}

// ---- Provenance tags: feedback > stats > declared ------------------------

class ProvenanceTest : public ExplainTest {
 protected:
  ProvenanceTest() { obs::PredicateFeedbackStore::Global().Clear(); }
  ~ProvenanceTest() override {
    obs::PredicateFeedbackStore::Global().Clear();
  }

  std::string Explain(const std::string& sql,
                      const cost::CostParams& cost_params) {
    return MeasureOn("EXPLAIN " + sql, optimizer::Algorithm::kMigration,
                     cost_params)
        .explain_text;
  }
};

TEST_F(ProvenanceTest, DeclaredTierBeforeAnalyze) {
  // No ANALYZE has run and no feedback exists: every annotated predicate
  // reports the declared tier.
  const std::string text = Explain(
      "SELECT * FROM t3 WHERE t3.a10 = 5 AND costly100(t3.ua)", {});
  EXPECT_NE(text.find("~decl"), std::string::npos) << text;
  EXPECT_EQ(text.find("~stats"), std::string::npos) << text;
  EXPECT_EQ(text.find("~feedback"), std::string::npos) << text;
}

TEST_F(ProvenanceTest, StatsTierAfterAnalyze) {
  auto table = db_.catalog().GetTable("t3");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(
      stats::AnalyzeTable(*table, stats::AnalyzeOptions::Default()).ok());
  const std::string text =
      Explain("SELECT * FROM t3 WHERE t3.a10 = 5", {});
  EXPECT_NE(text.find("sel=") , std::string::npos) << text;
  EXPECT_NE(text.find("~stats"), std::string::npos) << text;

  // Disabling the stats tier drops the tag back to declared.
  cost::CostParams no_stats;
  no_stats.use_collected_stats = false;
  const std::string declared =
      Explain("SELECT * FROM t3 WHERE t3.a10 = 5", no_stats);
  EXPECT_EQ(declared.find("~stats"), std::string::npos) << declared;
  EXPECT_NE(declared.find("~decl"), std::string::npos) << declared;
}

TEST_F(ProvenanceTest, FeedbackTierOutranksStats) {
  obs::FeedbackEntry entry;
  entry.cost_per_call = 42.0;
  entry.selectivity = 0.125;
  entry.has_selectivity = true;
  entry.samples = 100;
  obs::PredicateFeedbackStore::Global().Update("costly100", entry);

  cost::CostParams params;
  params.use_feedback = true;
  const std::string text =
      Explain("SELECT * FROM t3 WHERE costly100(t3.ua)", params);
  EXPECT_NE(text.find("~feedback"), std::string::npos) << text;
  EXPECT_NE(text.find("sel=0.125~feedback"), std::string::npos) << text;
  EXPECT_NE(text.find("cost=42~feedback"), std::string::npos) << text;
}

// ---- OperatorStats inclusive accounting (satellite audit) ----------------

class StatsAuditTest : public ::testing::Test {
 protected:
  StatsAuditTest() {
    config_.scale = 200;
    config_.table_numbers = {1, 3, 6, 7, 9, 10};
    EXPECT_TRUE(workload::LoadBenchmarkDatabase(&db_, config_).ok());
    EXPECT_TRUE(workload::RegisterBenchmarkFunctions(&db_).ok());
  }

  double InclusiveSeconds(const exec::Operator& op) {
    return op.stats().open_seconds + op.stats().next_seconds;
  }

  /// Self time = inclusive minus children's inclusive. Child wrapper calls
  /// nest inside the parent's timed interval, so self must be >= -epsilon
  /// and the self times must sum to at most the root's inclusive time.
  double SumPositiveSelf(const exec::Operator& op, double* min_self) {
    double children = 0.0;
    double sum = 0.0;
    for (const exec::Operator* child : op.Children()) {
      children += InclusiveSeconds(*child);
      sum += SumPositiveSelf(*child, min_self);
    }
    const double self = InclusiveSeconds(op) - children;
    *min_self = std::min(*min_self, self);
    return sum + std::max(0.0, self);
  }

  /// Parent inclusive I/O must cover the children's (monotone pool
  /// counters read around nested calls).
  void CheckIoNesting(const exec::Operator& op) {
    uint64_t seq = 0, rand = 0, hit = 0;
    for (const exec::Operator* child : op.Children()) {
      seq += child->stats().io.sequential_reads;
      rand += child->stats().io.random_reads;
      hit += child->stats().io.buffer_hits;
      CheckIoNesting(*child);
    }
    EXPECT_GE(op.stats().io.sequential_reads, seq);
    EXPECT_GE(op.stats().io.random_reads, rand);
    EXPECT_GE(op.stats().io.buffer_hits, hit);
  }

  void RunAndAudit(const std::string& id, size_t batch_size) {
    auto spec = workload::GetBenchmarkQuery(db_, config_, id);
    ASSERT_TRUE(spec.ok()) << spec.status();
    optimizer::Optimizer opt(&db_.catalog(), {});
    auto result = opt.Optimize(*spec, optimizer::Algorithm::kMigration);
    ASSERT_TRUE(result.ok()) << result.status();

    exec::ExecContext ctx;
    ctx.catalog = &db_.catalog();
    ctx.params.batch_size = batch_size;
    for (const plan::TableRef& ref : spec->tables) {
      auto table = db_.catalog().GetTable(ref.table_name);
      ASSERT_TRUE(table.ok());
      ctx.binding[ref.alias] = *table;
    }
    std::unique_ptr<exec::Operator> root;
    auto rows = exec::ExecutePlan(*result->plan, &ctx, nullptr, nullptr,
                                  &root);
    ASSERT_TRUE(rows.ok()) << rows.status();
    ASSERT_NE(root, nullptr);

    constexpr double kEps = 1e-3;  // Clock-read jitter, seconds.
    double min_self = 0.0;
    const double self_sum = SumPositiveSelf(*root, &min_self);
    EXPECT_GE(min_self, -kEps) << id << " batch=" << batch_size;
    EXPECT_LE(self_sum, InclusiveSeconds(*root) + kEps)
        << id << " batch=" << batch_size;
    CheckIoNesting(*root);
  }

  workload::Database db_;
  workload::BenchmarkConfig config_;
};

TEST_F(StatsAuditTest, SelfTimesNestUnderBatchDrain) {
  for (const char* id : {"Q1", "Q2", "Q3", "Q4", "Q5"}) {
    RunAndAudit(id, exec::ExecParams{}.batch_size);
  }
}

TEST_F(StatsAuditTest, SelfTimesNestUnderTupleShim) {
  // batch_size=1 pulls tuple-at-a-time everywhere.
  for (const char* id : {"Q1", "Q4"}) {
    RunAndAudit(id, 1);
  }
}

TEST(StripExplainTest, RecognizesPrefixes) {
  std::string rest;
  EXPECT_EQ(parser::StripExplain("SELECT * FROM t3", &rest),
            parser::StatementKind::kSelect);
  EXPECT_EQ(rest, "SELECT * FROM t3");

  EXPECT_EQ(parser::StripExplain("EXPLAIN SELECT * FROM t3", &rest),
            parser::StatementKind::kExplain);
  EXPECT_EQ(rest.find("EXPLAIN"), std::string::npos);
  EXPECT_NE(rest.find("SELECT"), std::string::npos);

  EXPECT_EQ(
      parser::StripExplain("  explain  analyze  select * from t3", &rest),
      parser::StatementKind::kExplainAnalyze);
  EXPECT_NE(rest.find("select"), std::string::npos);
}

TEST(StripExplainTest, DoesNotEatIdentifierPrefixes) {
  // "EXPLAINER" is an identifier, not the keyword.
  std::string rest;
  EXPECT_EQ(parser::StripExplain("EXPLAINER", &rest),
            parser::StatementKind::kSelect);
  EXPECT_EQ(rest, "EXPLAINER");
  // EXPLAIN followed by a non-ANALYZE word strips only EXPLAIN.
  EXPECT_EQ(parser::StripExplain("EXPLAIN ANALYZER", &rest),
            parser::StatementKind::kExplain);
  EXPECT_NE(rest.find("ANALYZER"), std::string::npos);
}

TEST(StripExplainTest, ParseStatementCarriesKind) {
  auto stmt = parser::ParseStatement("EXPLAIN ANALYZE SELECT * FROM t3");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  EXPECT_EQ(stmt->kind, parser::StatementKind::kExplainAnalyze);
  ASSERT_EQ(stmt->select.tables.size(), 1u);
  EXPECT_EQ(stmt->select.tables[0].table_name, "t3");

  auto plain = parser::ParseStatement("SELECT * FROM t3");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->kind, parser::StatementKind::kSelect);
}

}  // namespace
}  // namespace ppp

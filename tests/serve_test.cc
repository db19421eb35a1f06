// Serving-layer checks: the statistics-keyed plan cache (hit/miss,
// ANALYZE invalidation, snapshot-identity keying, byte-bounded LRU), SQL
// normalization, the cross-query shared predicate-cache registry, and —
// the load-bearing one — concurrent sessions producing byte-identical
// results with exact engine-wide UDF invocation parity against the
// plan-cache-off baseline.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exec/executor.h"
#include "exec/shared_caches.h"
#include "expr/evaluator.h"
#include "obs/metrics.h"
#include "obs/plan_audit.h"
#include "obs/profiler.h"
#include "obs/query_log.h"
#include "obs/span.h"
#include "optimizer/optimizer.h"
#include "parser/binder.h"
#include "parser/normalize.h"
#include "serve/plan_cache.h"
#include "serve/session.h"
#include "stats/collector.h"
#include "storage/io_stats.h"
#include "subquery/rewrite.h"
#include "workload/database.h"
#include "workload/measurement.h"
#include "workload/queries.h"
#include "workload/schema_gen.h"

namespace ppp {
namespace {

class ServeTest : public ::testing::Test {
 protected:
  ServeTest() {
    config_.scale = 150;
    config_.table_numbers = {1, 3, 6, 7, 9, 10};
    EXPECT_TRUE(workload::LoadBenchmarkDatabase(&db_, config_).ok());
    EXPECT_TRUE(workload::RegisterBenchmarkFunctions(&db_).ok());
  }

  std::vector<std::string> QueryTexts() {
    std::vector<std::string> sql;
    for (const workload::BenchmarkQuery& q :
         workload::BenchmarkQueries(config_)) {
      sql.push_back(q.sql);
    }
    return sql;
  }

  /// Optimizes benchmark query `id` under `algorithm`.
  plan::PlanPtr PlanFor(const std::string& id,
                        optimizer::Algorithm algorithm) {
    auto spec = workload::GetBenchmarkQuery(db_, config_, id);
    EXPECT_TRUE(spec.ok()) << spec.status();
    optimizer::Optimizer opt(&db_.catalog(), {});
    auto result = opt.Optimize(*spec, algorithm);
    EXPECT_TRUE(result.ok()) << result.status();
    return std::move(result->plan);
  }

  /// Executes `plan` (of benchmark query `id`) with its §5.1 caches taken
  /// from `registry`; returns the executed operator tree.
  std::unique_ptr<exec::Operator> ExecuteShared(
      const std::string& id, const plan::PlanNode& plan,
      exec::SharedPredicateCacheRegistry* registry, exec::ExecStats* stats,
      std::vector<std::string>* canonical = nullptr) {
    auto spec = workload::GetBenchmarkQuery(db_, config_, id);
    EXPECT_TRUE(spec.ok()) << spec.status();
    exec::ExecContext ctx;
    ctx.catalog = &db_.catalog();
    ctx.shared_caches = registry;
    for (const plan::TableRef& ref : spec->tables) {
      ctx.binding[ref.alias] = *db_.catalog().GetTable(ref.table_name);
    }
    types::RowSchema schema;
    std::unique_ptr<exec::Operator> root;
    auto rows = exec::ExecutePlan(plan, &ctx, stats, &schema, &root);
    EXPECT_TRUE(rows.ok()) << rows.status();
    if (canonical != nullptr && rows.ok()) {
      *canonical = workload::CanonicalResults(*rows, schema);
    }
    return root;
  }

  workload::Database db_;
  workload::BenchmarkConfig config_;
};

/// Calls `fn` on every operator of the tree under `op`.
void ForEachOperator(const exec::Operator& op,
                     const std::function<void(const exec::Operator&)>& fn) {
  fn(op);
  for (const exec::Operator* child : op.Children()) {
    ForEachOperator(*child, fn);
  }
}

// --------------------------------------------------------------------------
// Normalization

TEST(NormalizeTest, WhitespaceAndKeywordCaseDoNotChangeIdentity) {
  auto a = parser::NormalizeSql("SELECT t3.a FROM t3 WHERE t3.a > 5;");
  auto b = parser::NormalizeSql("select   t3.a\nfrom t3   where t3.a>5");
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ(a->text, b->text);
  EXPECT_EQ(a->text_hash, b->text_hash);
  EXPECT_EQ(a->family_hash, b->family_hash);
}

TEST(NormalizeTest, LiteralsChangeTextHashButNotFamily) {
  auto a = parser::NormalizeSql("SELECT t3.a FROM t3 WHERE t3.a > 5");
  auto b = parser::NormalizeSql("SELECT t3.a FROM t3 WHERE t3.a > 7");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // A plan embeds its constants, so the cache key must distinguish them…
  EXPECT_NE(a->text_hash, b->text_hash);
  // …while the $n-slotted family groups them for observability.
  EXPECT_EQ(a->family_hash, b->family_hash);
  ASSERT_EQ(a->params.size(), 1u);
  ASSERT_EQ(b->params.size(), 1u);
  EXPECT_EQ(a->params[0], "5");
  EXPECT_EQ(b->params[0], "7");
}

TEST(NormalizeTest, IdentifierCaseIsPreserved) {
  auto a = parser::NormalizeSql("SELECT T3.a FROM t3");
  auto b = parser::NormalizeSql("SELECT t3.a FROM t3");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->text_hash, b->text_hash);
}

// --------------------------------------------------------------------------
// PlacementParamsHash

TEST(PlanCacheKeyTest, PlacementKnobsChangeParamsHash) {
  cost::CostParams base;
  const uint64_t h = serve::PlacementParamsHash(base, "migration");
  EXPECT_NE(h, serve::PlacementParamsHash(base, "pushdown"));
  // Every CostParams field, toggled alone, moves the key: the key is the
  // only thing that keeps a cached plan from running under knobs (model or
  // executor) it was not optimized for.
  const std::vector<std::pair<const char*, void (*)(cost::CostParams*)>>
      toggles = {
          {"seq_page_io", [](cost::CostParams* p) { p->seq_page_io = 2.0; }},
          {"rand_page_io", [](cost::CostParams* p) { p->rand_page_io = 2.0; }},
          {"index_probe_ios",
           [](cost::CostParams* p) { p->index_probe_ios = 4.0; }},
          {"buffer_pages", [](cost::CostParams* p) { p->buffer_pages = 512; }},
          {"sort_fanout", [](cost::CostParams* p) { p->sort_fanout = 16; }},
          {"per_input_selectivity",
           [](cost::CostParams* p) { p->per_input_selectivity = false; }},
          {"predicate_caching",
           [](cost::CostParams* p) { p->predicate_caching = false; }},
          {"parallel_workers",
           [](cost::CostParams* p) { p->parallel_workers = 4; }},
          {"current_cardinality_estimate",
           [](cost::CostParams* p) {
             p->current_cardinality_estimate = false;
           }},
          {"use_feedback", [](cost::CostParams* p) { p->use_feedback = true; }},
          {"use_collected_stats",
           [](cost::CostParams* p) { p->use_collected_stats = false; }},
          {"predicate_transfer",
           [](cost::CostParams* p) { p->predicate_transfer = true; }},
      };
  for (const auto& [field, toggle] : toggles) {
    cost::CostParams changed = base;
    toggle(&changed);
    EXPECT_FALSE(changed == base) << field;
    EXPECT_NE(h, serve::PlacementParamsHash(changed, "migration")) << field;
  }
  EXPECT_EQ(h, serve::PlacementParamsHash(base, "migration"));
}

// --------------------------------------------------------------------------
// Shared predicate-cache registry

TEST(SharedCachesTest, SameIdentitySharesOneCache) {
  exec::SharedPredicateCacheRegistry registry;
  exec::ShardedPredicateCache::Options options;
  const std::string key =
      exec::BuildSharedCacheKey("costly100(t10.ua)", "t10=t10;", options);
  auto a = registry.GetOrCreate(key, options);
  auto b = registry.GetOrCreate(key, options);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(registry.reuses(), 1u);

  const std::string other =
      exec::BuildSharedCacheKey("costly100(t10.ua)", "t10=t9;", options);
  EXPECT_NE(key, other);
  auto c = registry.GetOrCreate(other, options);
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(registry.size(), 2u);
}

TEST_F(ServeTest, JoinAndFilterFormsOfOnePredicateShareEntries) {
  // PushDown evaluates match100 as the nested-loop join's primary, LDL as a
  // filter over a cross product. Both key the shared memo on the same
  // input-column bytes, so whichever runs second invokes match100 zero
  // times.
  const plan::PlanPtr join_form =
      PlanFor("Q5", optimizer::Algorithm::kPushDown);
  const plan::PlanPtr filter_form = PlanFor("Q5", optimizer::Algorithm::kLdl);
  ASSERT_NE(join_form->ToString().find("NestLoopJoin[match100("),
            std::string::npos)
      << join_form->ToString();
  ASSERT_NE(filter_form->ToString().find("Filter[match100("),
            std::string::npos)
      << filter_form->ToString();
  ASSERT_NE(filter_form->ToString().find("NestLoopJoin[true]"),
            std::string::npos)
      << filter_form->ToString();

  for (const bool join_first : {true, false}) {
    exec::SharedPredicateCacheRegistry registry;
    const plan::PlanNode& first = join_first ? *join_form : *filter_form;
    const plan::PlanNode& second = join_first ? *filter_form : *join_form;
    exec::ExecStats first_stats, second_stats;
    std::vector<std::string> first_rows, second_rows;
    ExecuteShared("Q5", first, &registry, &first_stats, &first_rows);
    ExecuteShared("Q5", second, &registry, &second_stats, &second_rows);
    EXPECT_GT(first_stats.invocations["match100"], 0u);
    EXPECT_EQ(second_stats.invocations["match100"], 0u) << join_first;
    EXPECT_EQ(first_rows, second_rows);
  }
}

TEST_F(ServeTest, PerBindCacheHitsStayExactUnderConcurrentSessions) {
  const plan::PlanPtr plan = PlanFor("Q5", optimizer::Algorithm::kPushDown);
  obs::Counter* memo_hits =
      obs::MetricsRegistry::Global().GetCounter("exec.predicate_cache.hits");

  // Per query: the cache hits of every caching operator, summed, and
  // whether the join's own hits stayed within its probes (one per
  // candidate pair, i.e. per row its inner input produced).
  struct QueryHits {
    uint64_t total = 0;
    uint64_t join = 0;
    bool join_within_probes = false;
  };
  const auto hits_of = [](const exec::Operator& root) {
    QueryHits out;
    ForEachOperator(root, [&out](const exec::Operator& op) {
      if (!op.stats().has_cache) return;
      out.total += op.stats().cache_hits;
      if (op.Describe() == "NestedLoopJoin") {
        out.join = op.stats().cache_hits;
        out.join_within_probes =
            out.join <= op.Children()[1]->stats().rows_out;
      }
    });
    return out;
  };

  // Serial: per-bind hits equal the memo's hit delta, query by query.
  {
    exec::SharedPredicateCacheRegistry registry;
    for (int run = 0; run < 2; ++run) {
      const uint64_t before = memo_hits->value();
      exec::ExecStats stats;
      const QueryHits hits =
          hits_of(*ExecuteShared("Q5", *plan, &registry, &stats));
      EXPECT_EQ(hits.total, memo_hits->value() - before) << run;
      // The first run computes every distinct pair; the second hits them.
      if (run == 1) {
        EXPECT_GT(hits.join, 0u);
      }
      EXPECT_TRUE(hits.join_within_probes);
    }
  }

  // Concurrent: 4 sessions x 3 queries on one registry. A registry-wide
  // baseline would fold other sessions' hits into each query; per-bind
  // counts must still add up to the memo's hit delta exactly.
  constexpr size_t kSessions = 4;
  constexpr size_t kQueries = 3;
  exec::SharedPredicateCacheRegistry registry;
  std::vector<std::unique_ptr<exec::Operator>> roots(kSessions * kQueries);
  const uint64_t before = memo_hits->value();
  std::vector<std::thread> threads;
  for (size_t i = 0; i < kSessions; ++i) {
    threads.emplace_back([&, i] {
      for (size_t q = 0; q < kQueries; ++q) {
        exec::ExecStats stats;
        roots[i * kQueries + q] =
            ExecuteShared("Q5", *plan, &registry, &stats);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const uint64_t delta = memo_hits->value() - before;
  uint64_t sum = 0;
  for (const std::unique_ptr<exec::Operator>& root : roots) {
    ASSERT_NE(root, nullptr);
    const QueryHits query = hits_of(*root);
    EXPECT_TRUE(query.join_within_probes);
    sum += query.total;
  }
  EXPECT_EQ(sum, delta);
  EXPECT_GT(sum, 0u);
}

// --------------------------------------------------------------------------
// Plan cache, session level

TEST_F(ServeTest, RepeatQueryHitsAndAnalyzeInvalidates) {
  serve::SessionManager manager(&db_);
  auto session = manager.CreateSession();
  const std::string sql = QueryTexts()[0];  // Q1: t3 ⋈ t10.

  auto first = session->Execute(sql);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_FALSE(first->plan_cache_hit);
  EXPECT_EQ(manager.plan_cache().entries(), 1u);

  auto second = session->Execute(sql);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->plan_cache_hit);
  EXPECT_EQ(manager.plan_cache().hits(), 1u);
  EXPECT_EQ(second->plan_fingerprint, first->plan_fingerprint);
  EXPECT_EQ(workload::CanonicalResults(second->rows, second->schema),
            workload::CanonicalResults(first->rows, first->schema));

  // ANALYZE of a bound table swaps its statistics snapshot; the catalog
  // listener must drop the entry before the next probe.
  auto analyze = session->Execute("ANALYZE t3");
  ASSERT_TRUE(analyze.ok()) << analyze.status();
  EXPECT_EQ(analyze->analyzed_tables, 1u);
  EXPECT_EQ(manager.plan_cache().entries(), 0u);
  EXPECT_GE(manager.plan_cache().invalidations(), 1u);

  auto third = session->Execute(sql);
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(third->plan_cache_hit);
  EXPECT_EQ(workload::CanonicalResults(third->rows, third->schema),
            workload::CanonicalResults(first->rows, first->schema));
}

TEST_F(ServeTest, AnalyzeOfUnboundTableKeepsEntry) {
  serve::SessionManager manager(&db_);
  auto session = manager.CreateSession();
  const std::string sql = QueryTexts()[0];  // Binds t3 and t10 only.
  ASSERT_TRUE(session->Execute(sql).ok());
  ASSERT_TRUE(session->Execute("ANALYZE t9").ok());
  EXPECT_EQ(manager.plan_cache().entries(), 1u);
  auto again = session->Execute(sql);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->plan_cache_hit);
}

TEST_F(ServeTest, SnapshotIdentityCatchesStatsSwapWithoutListener) {
  // Probe-time epoch validation is the backstop when no listener fired
  // (e.g. stats were swapped through a path that raced the insert). Drive
  // the PlanCache directly: record the epochs, swap stats, probe.
  auto spec = subquery::ParseBindRewrite(QueryTexts()[0], &db_.catalog());
  ASSERT_TRUE(spec.ok()) << spec.status();
  optimizer::Optimizer opt(&db_.catalog(), cost::CostParams{});
  auto optimized = opt.Optimize(*spec, optimizer::Algorithm::kMigration);
  ASSERT_TRUE(optimized.ok());

  serve::PlanCache cache;
  serve::CachedPlan entry;
  entry.plan = std::shared_ptr<const plan::PlanNode>(
      std::move(optimized->plan));
  for (const plan::TableRef& ref : spec->tables) {
    catalog::Table* table = *db_.catalog().GetTable(ref.table_name);
    entry.bindings.emplace_back(ref.alias, ref.table_name);
    entry.stats_epochs.push_back(table->stats_epoch());
  }
  serve::PlanCacheKey key{1, 2};
  cache.Insert(key, std::move(entry));
  EXPECT_NE(cache.Probe(key, db_.catalog()), nullptr);

  catalog::Table* t3 = *db_.catalog().GetTable("t3");
  ASSERT_TRUE(
      stats::AnalyzeTable(t3, stats::AnalyzeOptions::Default()).ok());
  // Same key, new statistics snapshot: the entry must not be served.
  EXPECT_EQ(cache.Probe(key, db_.catalog()), nullptr);
  EXPECT_EQ(cache.entries(), 0u);
  EXPECT_EQ(cache.invalidations(), 1u);
}

TEST_F(ServeTest, DifferentCostParamsGetDifferentSlots) {
  serve::SessionManager manager(&db_);
  auto a = manager.CreateSession();
  serve::SessionOptions options;
  options.cost_params.predicate_caching = false;
  auto b = manager.CreateSession(options);
  const std::string sql = QueryTexts()[0];
  ASSERT_TRUE(a->Execute(sql).ok());
  auto r = b->Execute(sql);
  ASSERT_TRUE(r.ok());
  // Same normalized text, different placement knobs: b must not reuse a's
  // plan (it was optimized under different costs).
  EXPECT_FALSE(r->plan_cache_hit);
  EXPECT_EQ(manager.plan_cache().entries(), 2u);
}

TEST_F(ServeTest, ExecuteSharesTheExactSlotOfTheSameLiteralQuery) {
  // An EXECUTE's concrete text must be spelled exactly as NormalizeSql
  // spells the QUERY with the same literal, or the two never share a plan.
  serve::SessionManager manager(&db_);
  auto session = manager.CreateSession();
  ASSERT_TRUE(
      session->Execute("PREPARE pi AS SELECT t3.a FROM t3 WHERE t3.a = $1")
          .ok());
  ASSERT_TRUE(
      session->Execute("PREPARE pd AS SELECT t3.a FROM t3 WHERE t3.u10 < $1")
          .ok());
  ASSERT_TRUE(
      session->Execute("PREPARE ps AS SELECT t3.a FROM t3 WHERE t3.pad = $1")
          .ok());
  const struct {
    const char* execute;
    const char* query;
  } kCases[] = {
      {"EXECUTE pi(5)", "SELECT t3.a FROM t3 WHERE t3.a = 5"},
      {"EXECUTE pi(-2)", "SELECT t3.a FROM t3 WHERE t3.a = -2"},
      {"EXECUTE pd(2.5)", "SELECT t3.a FROM t3 WHERE t3.u10 < 2.5"},
      {"EXECUTE pd(0.1)", "SELECT t3.a FROM t3 WHERE t3.u10 < 0.1"},
      {"EXECUTE pd(-3.0)", "SELECT t3.a FROM t3 WHERE t3.u10 < -3.0"},
      {"EXECUTE ps('xyz')", "SELECT t3.a FROM t3 WHERE t3.pad = 'xyz'"},
  };
  for (const auto& c : kCases) {
    auto executed = session->Execute(c.execute);
    ASSERT_TRUE(executed.ok()) << c.execute << ": " << executed.status();
    auto norm = parser::NormalizeSql(c.query);
    ASSERT_TRUE(norm.ok()) << norm.status();
    EXPECT_EQ(executed->text_hash, norm->text_hash) << c.execute;
    auto queried = session->Execute(c.query);
    ASSERT_TRUE(queried.ok()) << c.query << ": " << queried.status();
    EXPECT_TRUE(queried->plan_cache_hit) << c.query;
    EXPECT_FALSE(queried->generic_plan) << c.query;
    EXPECT_EQ(queried->rows.size(), executed->rows.size()) << c.query;
  }
}

TEST_F(ServeTest, QueryLogTakesPlanFactsFromTheCacheOnEveryPath) {
  obs::QueryLog::Global().Clear();
  // Calibrated costly1 puts the plans on the feedback tier, so a cached
  // tier that fell back to the declared default would show.
  obs::FeedbackEntry calibrated;
  calibrated.cost_per_call = 1.0;
  calibrated.selectivity = 0.5;
  calibrated.has_selectivity = true;
  calibrated.samples = 100;
  obs::PredicateFeedbackStore::Global().Update("costly1", calibrated);
  serve::SessionManager manager(&db_);
  auto session = manager.CreateSession();
  session->options().cost_params.use_feedback = true;
  // The log record must carry exactly what the plan itself yields, however
  // the plan was obtained.
  auto check = [](const serve::QueryResult& r, const char* path) {
    const std::vector<obs::QueryLogRecord> tail =
        obs::QueryLog::Global().Tail(1);
    ASSERT_EQ(tail.size(), 1u) << path;
    ASSERT_NE(r.plan, nullptr) << path;
    EXPECT_EQ(tail[0].plan_fingerprint, r.plan->Fingerprint()) << path;
    EXPECT_EQ(r.plan_fingerprint, r.plan->Fingerprint()) << path;
    EXPECT_EQ(tail[0].stats_tier, exec::WeakestStatsTier(*r.plan)) << path;
    EXPECT_EQ(tail[0].text_hash, r.text_hash) << path;
  };
  ASSERT_TRUE(session
                  ->Execute("PREPARE q AS SELECT t3.a, t3.u10 FROM t3 "
                            "WHERE costly1(t3.ua + $1)")
                  .ok());
  auto cold = session->Execute("EXECUTE q(5)");
  ASSERT_TRUE(cold.ok()) << cold.status();
  EXPECT_FALSE(cold->plan_cache_hit);
  EXPECT_EQ(exec::WeakestStatsTier(*cold->plan), obs::StatsTier::kFeedback);
  check(*cold, "cold compile");
  auto generic = session->Execute("EXECUTE q(7)");
  ASSERT_TRUE(generic.ok()) << generic.status();
  EXPECT_TRUE(generic->generic_plan);
  check(*generic, "generic hit");
  auto exact = session->Execute("EXECUTE q(5)");
  ASSERT_TRUE(exact.ok()) << exact.status();
  EXPECT_TRUE(exact->plan_cache_hit);
  EXPECT_FALSE(exact->generic_plan);
  check(*exact, "exact hit");
  const std::string sql = QueryTexts()[0];
  auto miss = session->Execute(sql);
  ASSERT_TRUE(miss.ok()) << miss.status();
  check(*miss, "query miss");
  auto hit = session->Execute(sql);
  ASSERT_TRUE(hit.ok()) << hit.status();
  EXPECT_TRUE(hit->plan_cache_hit);
  check(*hit, "query hit");
  obs::PredicateFeedbackStore::Global().Clear();
}

TEST_F(ServeTest, KnobChangeBetweenExecutesMovesToANewSlot) {
  serve::SessionManager manager(&db_);
  auto session = manager.CreateSession();
  ASSERT_TRUE(
      session->Execute("PREPARE k AS SELECT t3.a FROM t3 WHERE t3.a < $1")
          .ok());
  ASSERT_TRUE(session->Execute("EXECUTE k(5)").ok());
  auto warm = session->Execute("EXECUTE k(5)");
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->plan_cache_hit);
  const size_t entries = manager.plan_cache().entries();

  // The params-hash memo must notice a knob set through options().
  session->options().cost_params.rand_page_io = 2.0;
  auto moved = session->Execute("EXECUTE k(5)");
  ASSERT_TRUE(moved.ok());
  EXPECT_FALSE(moved->plan_cache_hit);
  EXPECT_GT(manager.plan_cache().entries(), entries);
  auto again = session->Execute("EXECUTE k(5)");
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->plan_cache_hit);

  // Back to the defaults: the original slot serves again.
  session->options().cost_params.rand_page_io = 1.0;
  auto back = session->Execute("EXECUTE k(5)");
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->plan_cache_hit);
  // The algorithm is part of the key as well.
  session->options().algorithm = optimizer::Algorithm::kPushDown;
  auto algo = session->Execute("EXECUTE k(5)");
  ASSERT_TRUE(algo.ok());
  EXPECT_FALSE(algo->plan_cache_hit);
}

/// Runs the one-slot statement `body` through every way a session obtains
/// a plan — a cold EXECUTE compile, a generic (family) EXECUTE, an
/// exact-hit EXECUTE and a plain QUERY — and calls `check` after each with
/// the concrete SQL that ran.
void OnEveryPlanPath(
    serve::Session* session, const std::string& body,
    const std::function<void(const std::string& path, const std::string& sql,
                             const std::function<void()>& run)>& check) {
  ASSERT_TRUE(session->Execute("PREPARE p AS " + body).ok());
  const auto concrete = [&](const std::string& literal) {
    std::string sql = body;
    sql.replace(sql.find("$1"), 2, literal);
    return sql;
  };
  const struct {
    const char* path;
    std::string statement;
    std::string literal;
    bool hit;
    bool generic;
  } kSteps[] = {
      {"cold EXECUTE", "EXECUTE p(10)", "10", false, false},
      {"generic EXECUTE", "EXECUTE p(15)", "15", true, true},
      {"exact-hit EXECUTE", "EXECUTE p(10)", "10", true, false},
      {"QUERY", concrete("20"), "20", false, false},
  };
  for (const auto& step : kSteps) {
    check(step.path, concrete(step.literal), [&] {
      auto r = session->Execute(step.statement);
      ASSERT_TRUE(r.ok()) << step.path << ": " << r.status();
      EXPECT_EQ(r->plan_cache_hit, step.hit) << step.path;
      EXPECT_EQ(r->generic_plan, step.generic) << step.path;
    });
  }
}

TEST_F(ServeTest, OneCostParamsKnobGovernsPlanAndExecutionOnEveryPath) {
  // Each knob the optimizer shares with the executor is set once, on
  // SessionOptions::cost_params only; execution must follow it however
  // the session obtained its plan.
  obs::PredicateProfiler::Global().Reset();
  const std::string udf_body =
      "SELECT t3.a FROM t3 WHERE t3.ua < $1 AND costly1(t3.u100)";

  // predicate_caching off: every path invokes the UDF exactly as often as
  // an uncached EXPLAIN ANALYZE of the same SQL (and more often than a
  // cached one, so the knob is visible). The reference runs on a second
  // session of the same manager.
  {
    serve::SessionManager manager(&db_);
    auto session = manager.CreateSession();
    auto reference = manager.CreateSession();
    session->options().cost_params.predicate_caching = false;
    OnEveryPlanPath(
        session.get(), udf_body,
        [&](const std::string& path, const std::string& sql,
            const std::function<void()>& run) {
          const auto invocations = [&](const cost::CostParams& knobs) {
            reference->options().cost_params = knobs;
            auto m = workload::Measure(&db_, reference.get(),
                                       "EXPLAIN ANALYZE " + sql);
            EXPECT_TRUE(m.ok()) << m.status();
            return m.ok() ? m->invocations["costly1"] : 0;
          };
          const uint64_t cached = invocations(cost::CostParams{});
          const uint64_t uncached =
              invocations(session->options().cost_params);
          ASSERT_GT(uncached, cached) << path;
          run();
          const std::vector<obs::QueryLogRecord> tail =
              obs::QueryLog::Global().Tail(1);
          ASSERT_EQ(tail.size(), 1u) << path;
          EXPECT_EQ(tail[0].udf_invocations, uncached) << path;
        });
  }

  // parallel_workers = 4: the expensive filter fans out on every path.
  {
    obs::Counter* batches =
        obs::MetricsRegistry::Global().GetCounter("exec.parallel.batches");
    serve::SessionManager manager(&db_);
    auto session = manager.CreateSession();
    session->options().cost_params.parallel_workers = 4;
    OnEveryPlanPath(session.get(), udf_body,
                    [&](const std::string& path, const std::string&,
                        const std::function<void()>& run) {
                      const uint64_t before = batches->value();
                      run();
                      EXPECT_GT(batches->value(), before) << path;
                    });
  }

  // predicate_transfer on, over Q4's hash join: every path probes a Bloom
  // filter.
  {
    obs::Counter* probed =
        obs::MetricsRegistry::Global().GetCounter("exec.transfer.probed");
    serve::SessionManager manager(&db_);
    auto session = manager.CreateSession();
    session->options().cost_params.predicate_transfer = true;
    OnEveryPlanPath(
        session.get(),
        "SELECT * FROM t3, t6, t10 WHERE t3.a10 = t6.a10 AND "
        "t6.ua = t10.ua1 AND t10.u10 < $1 AND costly100(t3.ua)",
        [&](const std::string& path, const std::string&,
            const std::function<void()>& run) {
          const uint64_t before = probed->value();
          run();
          EXPECT_GT(probed->value(), before) << path;
        });
  }
  obs::PredicateProfiler::Global().Reset();
}

TEST_F(ServeTest, ExplainReturnsPlanLinesAndRunsNothing) {
  serve::SessionManager manager(&db_);
  auto session = manager.CreateSession();
  const std::string sql = QueryTexts()[0];
  const uint64_t udf_before = expr::ThreadUdfCalls();
  const storage::IoStats io_before = storage::ThreadIo();
  auto r = session->Execute("EXPLAIN " + sql);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(expr::ThreadUdfCalls() - udf_before, 0u);
  EXPECT_EQ(storage::ThreadIo().sequential_reads, io_before.sequential_reads);
  EXPECT_EQ(storage::ThreadIo().random_reads, io_before.random_reads);
  EXPECT_EQ(r->stats.output_rows, 0u);
  EXPECT_TRUE(r->stats.invocations.empty());

  // One string column `plan`, one row per line of the rendered plan.
  ASSERT_EQ(r->schema.NumColumns(), 1u);
  EXPECT_EQ(r->schema.Column(0).name, "plan");
  EXPECT_EQ(r->schema.Column(0).type, types::TypeId::kString);
  ASSERT_NE(r->plan, nullptr);
  std::string text;
  for (const types::Tuple& line : r->rows) {
    text += line.Get(0).AsString();
    text += '\n';
  }
  EXPECT_EQ(text, r->plan->ToString());
  EXPECT_GT(r->rows.size(), 1u);

  // The optimizer's own account, and no plan-cache traffic either way.
  EXPECT_FALSE(r->trace.empty());
  EXPECT_GT(r->dp_stats.subplans_generated, 0u);
  EXPECT_GT(r->est_cost, 0.0);
  EXPECT_FALSE(r->plan_cache_hit);
  EXPECT_EQ(manager.plan_cache().entries(), 0u);
  EXPECT_EQ(manager.plan_cache().misses(), 0u);

  // A plain SELECT of the same text after it still misses: EXPLAIN filled
  // nothing.
  auto select = session->Execute(sql);
  ASSERT_TRUE(select.ok()) << select.status();
  EXPECT_FALSE(select->plan_cache_hit);
}

TEST_F(ServeTest, ExplainAnalyzeAfterWarmRepeatsMatchesAColdRun) {
  // EXPLAIN ANALYZE measures the query on its own: warm plan, function
  // and shared §5.1 caches of earlier statements must not leak into it.
  serve::SessionManager manager(&db_);
  auto session = manager.CreateSession();
  const std::string sql = QueryTexts()[0];  // Q1.
  auto cold = session->Execute("EXPLAIN ANALYZE " + sql);
  ASSERT_TRUE(cold.ok()) << cold.status();
  ASSERT_GT(cold->stats.invocations.at("costly100"), 0u);

  uint64_t warm_calls = 0;
  for (int i = 0; i < 3; ++i) {
    auto warm = session->Execute(sql);
    ASSERT_TRUE(warm.ok()) << warm.status();
    EXPECT_EQ(warm->stats.output_rows, cold->stats.output_rows);
    const auto it = warm->stats.invocations.find("costly100");
    warm_calls = it == warm->stats.invocations.end() ? 0 : it->second;
  }
  // The repeats really ran warm: the shared caches answered their calls.
  EXPECT_LT(warm_calls, cold->stats.invocations.at("costly100"));

  auto again = session->Execute("EXPLAIN ANALYZE " + sql);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_FALSE(again->plan_cache_hit);
  EXPECT_EQ(again->stats.invocations, cold->stats.invocations);
  EXPECT_EQ(again->stats.output_rows, cold->stats.output_rows);
  ASSERT_FALSE(again->rows.empty());
  EXPECT_NE(again->rows[0].Get(0).AsString().find("actual rows="),
            std::string::npos);
}

TEST_F(ServeTest, ByteBoundedLruEviction) {
  serve::PlanCache::Options options;
  options.max_bytes = 1;  // Far below one entry: cache keeps exactly one.
  serve::PlanCache cache(options);
  auto spec = subquery::ParseBindRewrite(QueryTexts()[0], &db_.catalog());
  ASSERT_TRUE(spec.ok());
  optimizer::Optimizer opt(&db_.catalog(), cost::CostParams{});
  for (uint64_t i = 0; i < 4; ++i) {
    auto optimized = opt.Optimize(*spec, optimizer::Algorithm::kMigration);
    ASSERT_TRUE(optimized.ok());
    serve::CachedPlan entry;
    entry.plan = std::shared_ptr<const plan::PlanNode>(
        std::move(optimized->plan));
    cache.Insert(serve::PlanCacheKey{i, 0}, std::move(entry));
    EXPECT_EQ(cache.entries(), 1u);
  }
  EXPECT_EQ(cache.evictions(), 3u);
  // Only the newest key survives.
  EXPECT_EQ(cache.Probe(serve::PlanCacheKey{0, 0}, db_.catalog()), nullptr);
  EXPECT_NE(cache.Probe(serve::PlanCacheKey{3, 0}, db_.catalog()), nullptr);
}

TEST_F(ServeTest, EntryBoundLruKeepsHotEntries) {
  serve::PlanCache::Options options;
  options.max_entries = 2;
  serve::PlanCache cache(options);
  auto spec = subquery::ParseBindRewrite(QueryTexts()[0], &db_.catalog());
  ASSERT_TRUE(spec.ok());
  optimizer::Optimizer opt(&db_.catalog(), cost::CostParams{});
  auto make_entry = [&]() {
    auto optimized = opt.Optimize(*spec, optimizer::Algorithm::kMigration);
    EXPECT_TRUE(optimized.ok());
    serve::CachedPlan entry;
    entry.plan = std::shared_ptr<const plan::PlanNode>(
        std::move(optimized->plan));
    return entry;
  };
  cache.Insert(serve::PlanCacheKey{1, 0}, make_entry());
  cache.Insert(serve::PlanCacheKey{2, 0}, make_entry());
  // Touch 1 so 2 becomes the LRU victim.
  EXPECT_NE(cache.Probe(serve::PlanCacheKey{1, 0}, db_.catalog()), nullptr);
  cache.Insert(serve::PlanCacheKey{3, 0}, make_entry());
  EXPECT_EQ(cache.entries(), 2u);
  EXPECT_NE(cache.Probe(serve::PlanCacheKey{1, 0}, db_.catalog()), nullptr);
  EXPECT_EQ(cache.Probe(serve::PlanCacheKey{2, 0}, db_.catalog()), nullptr);
}

TEST_F(ServeTest, PlanCacheDisabledByManagerOption) {
  serve::SessionManager::Options options;
  options.plan_cache_enabled = false;
  serve::SessionManager manager(&db_, options);
  auto session = manager.CreateSession();
  const std::string sql = QueryTexts()[0];
  ASSERT_TRUE(session->Execute(sql).ok());
  auto second = session->Execute(sql);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->plan_cache_hit);
  EXPECT_EQ(manager.plan_cache().entries(), 0u);
}

// --------------------------------------------------------------------------
// Observability plumbing

TEST_F(ServeTest, QueryLogRecordsSessionId) {
  obs::QueryLog::Global().Clear();
  serve::SessionManager manager(&db_);
  auto a = manager.CreateSession();
  auto b = manager.CreateSession();
  ASSERT_TRUE(a->Execute(QueryTexts()[0]).ok());
  ASSERT_TRUE(b->Execute(QueryTexts()[1]).ok());
  const auto records = obs::QueryLog::Global().Snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].session_id, a->id());
  EXPECT_EQ(records[1].session_id, b->id());
}

TEST_F(ServeTest, SystemTablesAreQueryableThroughASession) {
  serve::SessionManager manager(&db_);
  auto session = manager.CreateSession();
  const std::string sql = QueryTexts()[0];
  ASSERT_TRUE(session->Execute(sql).ok());
  ASSERT_TRUE(session->Execute(sql).ok());

  // The introspection query itself enters the cache before executing, so
  // filter down to the (repeated) Q1 entry by its hit count.
  auto cache_rows = session->Execute(
      "SELECT ppp_plan_cache.text_hash, ppp_plan_cache.hits, "
      "ppp_plan_cache.tables FROM ppp_plan_cache "
      "WHERE ppp_plan_cache.hits >= 1");
  ASSERT_TRUE(cache_rows.ok()) << cache_rows.status();
  ASSERT_EQ(cache_rows->rows.size(), 1u);

  auto session_rows = session->Execute(
      "SELECT ppp_sessions.session_id, ppp_sessions.queries "
      "FROM ppp_sessions WHERE ppp_sessions.active = 1");
  ASSERT_TRUE(session_rows.ok()) << session_rows.status();
  ASSERT_EQ(session_rows->rows.size(), 1u);

  EXPECT_EQ(manager.active_sessions(), 1u);
  const auto rows = manager.SessionRows();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_GE(rows[0].queries, 4u);
  EXPECT_GE(rows[0].plan_cache_hits, 1u);
}

TEST_F(ServeTest, SecondManagerLeavesTheFirstManagersTablesServed) {
  serve::SessionManager first(&db_);
  auto session = first.CreateSession();
  ASSERT_TRUE(session->Execute(QueryTexts()[0]).ok());
  auto count = [&](const std::string& table) -> int64_t {
    auto r = session->Execute("SELECT count(*) FROM " + table);
    EXPECT_TRUE(r.ok()) << table << ": " << r.status();
    return r.ok() ? r->rows[0].Get(0).AsInt64() : -1;
  };
  // A second manager over the same database comes and goes; the first
  // one is still serving, so its tables must still read its own state.
  { serve::SessionManager second(&db_); }
  EXPECT_EQ(count("ppp_sessions"), 1);
  const int64_t cached = count("ppp_plan_cache");
  EXPECT_EQ(cached, static_cast<int64_t>(first.plan_cache().entries()));
  EXPECT_EQ(cached, 3);  // Q1 and the two counts.
}

TEST_F(ServeTest, SubqueryStatementIsOneRecord) {
  // The correlated IN runs its subquery once per distinct t3.a10, each a
  // nested plan execution. It is still one statement: one ppp_query_log
  // row, and every audit row and span carries that row's query id.
  serve::SessionManager manager(&db_);
  auto session = manager.CreateSession();
  obs::QueryLog::Global().Clear();
  obs::PlanAudit::Global().Clear();
  obs::SpanTracer& tracer = obs::SpanTracer::Global();
  const bool spans_were_on = tracer.enabled();
  tracer.Clear();
  tracer.set_enabled(true);
  auto result = session->Execute(
      "SELECT t3.a FROM t3 WHERE t3.u10 IN "
      "(SELECT u10 FROM t6 WHERE t6.a10 = t3.a10)");
  tracer.set_enabled(spans_were_on);
  ASSERT_TRUE(result.ok()) << result.status();

  const std::vector<obs::QueryLogRecord> records =
      obs::QueryLog::Global().Snapshot();
  ASSERT_EQ(records.size(), 1u);
  const uint64_t query_id = records[0].query_id;
  EXPECT_EQ(query_id, result->query_id);
  EXPECT_EQ(records[0].session_id, session->id());

  const std::vector<obs::OperatorAuditRecord> audit =
      obs::PlanAudit::Global().Snapshot();
  ASSERT_FALSE(audit.empty());
  for (const obs::OperatorAuditRecord& row : audit) {
    EXPECT_EQ(row.query_id, query_id) << row.path << " " << row.op;
  }

  const std::string id = std::to_string(query_id);
  size_t executions = 0;
  for (const obs::SpanEvent& e : tracer.Snapshot()) {
    if (e.cat == "exec" && e.name == "execute") ++executions;
    std::string span_id;
    for (const auto& [key, value] : e.args) {
      if (key == "query_id") span_id = value;
    }
    EXPECT_EQ(span_id, id) << e.cat << "/" << e.name;
  }
  // The outer plan plus at least one nested subquery execution.
  EXPECT_GT(executions, 1u);
  tracer.Clear();
}

TEST_F(ServeTest, ServeMetricsAreRegistered) {
  serve::SessionManager manager(&db_);
  auto session = manager.CreateSession();
  const std::string sql = QueryTexts()[0];
  ASSERT_TRUE(session->Execute(sql).ok());
  ASSERT_TRUE(session->Execute(sql).ok());
  const obs::MetricsSnapshot snap =
      obs::MetricsRegistry::Global().Snapshot();
  ASSERT_TRUE(snap.counters.count("serve.plan_cache.hits"));
  ASSERT_TRUE(snap.counters.count("serve.plan_cache.misses"));
  ASSERT_TRUE(snap.gauges.count("serve.sessions.active"));
  EXPECT_GT(snap.counters.at("serve.plan_cache.hits"), 0u);
  EXPECT_GT(snap.counters.at("serve.plan_cache.misses"), 0u);
  EXPECT_GE(snap.gauges.at("serve.sessions.active"), 1.0);
}

// --------------------------------------------------------------------------
// Concurrent sessions: correctness + exact invocation parity

TEST_F(ServeTest, ConcurrentSessionsAreByteIdenticalWithExactUdfParity) {
  const std::vector<std::string> queries = QueryTexts();

  // Single-session, plan-cache-off reference answers.
  std::vector<std::vector<std::string>> reference;
  {
    serve::SessionManager::Options options;
    options.plan_cache_enabled = false;
    serve::SessionManager manager(&db_, options);
    auto session = manager.CreateSession();
    for (const std::string& sql : queries) {
      auto r = session->Execute(sql);
      ASSERT_TRUE(r.ok()) << r.status();
      reference.push_back(workload::CanonicalResults(r->rows, r->schema));
    }
  }

  // One config = fresh manager, N session threads, each runs Q1..Q5.
  // Returns the engine-wide UDF invocation total (summed from the query
  // log, whose per-record counts are per-context exact).
  auto run_config = [&](size_t n_sessions, bool plan_cache) -> uint64_t {
    obs::QueryLog::Global().Clear();
    serve::SessionManager::Options options;
    options.plan_cache_enabled = plan_cache;
    serve::SessionManager manager(&db_, options);
    std::vector<std::unique_ptr<serve::Session>> sessions;
    for (size_t i = 0; i < n_sessions; ++i) {
      sessions.push_back(manager.CreateSession());
    }
    std::vector<std::thread> threads;
    std::vector<std::string> errors(n_sessions);
    for (size_t i = 0; i < n_sessions; ++i) {
      threads.emplace_back([&, i]() {
        for (size_t q = 0; q < queries.size(); ++q) {
          auto r = sessions[i]->Execute(queries[q]);
          if (!r.ok()) {
            errors[i] = r.status().ToString();
            return;
          }
          if (workload::CanonicalResults(r->rows, r->schema) !=
              reference[q]) {
            errors[i] = "results diverge on " + queries[q];
            return;
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    for (const std::string& e : errors) EXPECT_EQ(e, "");
    uint64_t udf_total = 0;
    for (const obs::QueryLogRecord& r : obs::QueryLog::Global().Snapshot()) {
      udf_total += r.udf_invocations;
    }
    EXPECT_EQ(obs::QueryLog::Global().total(),
              n_sessions * queries.size());
    return udf_total;
  };

  for (size_t n : {1u, 4u, 8u}) {
    const uint64_t with_cache = run_config(n, true);
    const uint64_t without_cache = run_config(n, false);
    // The plan cache changes where plans come from, never what executes:
    // invocation totals must match exactly (shared predicate caches make
    // them deterministic under concurrency via pending-entry dedup).
    EXPECT_EQ(with_cache, without_cache) << n << " sessions";
    EXPECT_GT(with_cache, 0u);
  }
}


TEST_F(ServeTest, ConcurrentAccountingMatchesTheSerialRun) {
  // Every execution's root audit row (the operators' inclusive UDF count)
  // must equal its query-log record (the context's own tallies), also
  // while other sessions probe the same shared caches.
  const std::vector<std::string> queries = QueryTexts();
  for (const size_t n_sessions : {1u, 4u, 8u}) {
    obs::QueryLog::Global().Clear();
    obs::PlanAudit::Global().Clear();
    serve::SessionManager manager(&db_);
    std::vector<std::unique_ptr<serve::Session>> sessions;
    for (size_t i = 0; i < n_sessions; ++i) {
      sessions.push_back(manager.CreateSession());
    }
    std::vector<std::thread> threads;
    for (size_t i = 0; i < n_sessions; ++i) {
      threads.emplace_back([&, i] {
        for (int rep = 0; rep < 2; ++rep) {
          for (const std::string& sql : queries) {
            EXPECT_TRUE(sessions[i]->Execute(sql).ok()) << sql;
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();

    std::map<uint64_t, uint64_t> root_udf;
    for (const obs::OperatorAuditRecord& r :
         obs::PlanAudit::Global().Snapshot()) {
      if (r.path == "0") root_udf[r.query_id] = r.udf_invocations;
    }
    const std::vector<obs::QueryLogRecord> log =
        obs::QueryLog::Global().Snapshot();
    ASSERT_EQ(log.size(), n_sessions * queries.size() * 2);
    size_t mismatches = 0;
    uint64_t logged_udf = 0;
    for (const obs::QueryLogRecord& r : log) {
      const auto it = root_udf.find(r.query_id);
      ASSERT_NE(it, root_udf.end()) << r.query_id;
      if (it->second != r.udf_invocations) ++mismatches;
      logged_udf += r.udf_invocations;
    }
    EXPECT_EQ(mismatches, 0u) << n_sessions << " sessions";
    EXPECT_GT(logged_udf, 0u);
  }

  // One plan's per-operator page pins and UDF calls, and its ExecStats pin
  // total, do not depend on what other threads execute, with or without
  // parallel workers. Pins are compared as reads + hits because which miss
  // counts as sequential follows the pool-wide last missed page.
  const auto figures_of = [&](const plan::PlanNode& plan,
                              const expr::TableBinding& binding,
                              int workers) {
    exec::ExecContext ctx;
    ctx.catalog = &db_.catalog();
    ctx.binding = binding;
    ctx.cost_params.parallel_workers = workers;
    exec::ExecStats stats;
    std::unique_ptr<exec::Operator> root;
    const auto rows = exec::ExecutePlan(plan, &ctx, &stats, nullptr, &root);
    EXPECT_TRUE(rows.ok()) << rows.status();
    std::vector<uint64_t> figures = {stats.io.TotalReads() +
                                     stats.io.buffer_hits};
    if (root == nullptr) return figures;
    ForEachOperator(*root, [&](const exec::Operator& op) {
      figures.push_back(op.stats().io.TotalReads() +
                        op.stats().io.buffer_hits);
      figures.push_back(op.stats().udf_invocations);
    });
    return figures;
  };
  for (const char* id : {"Q1", "Q4", "Q5"}) {
    const plan::PlanPtr plan = PlanFor(id, optimizer::Algorithm::kMigration);
    auto spec = workload::GetBenchmarkQuery(db_, config_, id);
    ASSERT_TRUE(spec.ok()) << spec.status();
    expr::TableBinding binding;
    for (const plan::TableRef& ref : spec->tables) {
      binding[ref.alias] = *db_.catalog().GetTable(ref.table_name);
    }
    for (const int workers : {1, 4}) {
      const std::vector<uint64_t> serial =
          figures_of(*plan, binding, workers);
      std::vector<std::vector<uint64_t>> concurrent(4);
      std::vector<std::thread> threads;
      for (size_t t = 0; t < concurrent.size(); ++t) {
        threads.emplace_back([&, t] {
          concurrent[t] = figures_of(*plan, binding, workers);
        });
      }
      for (std::thread& t : threads) t.join();
      for (const std::vector<uint64_t>& figures : concurrent) {
        EXPECT_EQ(figures, serial) << id << " workers=" << workers;
      }
    }
  }
}

}  // namespace
}  // namespace ppp

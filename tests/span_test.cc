#include <gtest/gtest.h>

#include <chrono>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "exec/executor.h"
#include "obs/profiler.h"
#include "obs/span.h"
#include "obs/trace_export.h"
#include "optimizer/optimizer.h"
#include "parser/binder.h"
#include "serve/session.h"
#include "subquery/rewrite.h"
#include "trace_reader.h"
#include "workload/database.h"
#include "workload/measurement.h"
#include "workload/queries.h"
#include "workload/schema_gen.h"

namespace ppp {
namespace {

/// Every test here mutates the process-global tracer; scope its state.
class TracerGuard {
 public:
  TracerGuard() {
    obs::SpanTracer::Global().Clear();
    obs::SpanTracer::Global().set_enabled(true);
  }
  ~TracerGuard() {
    obs::SpanTracer::Global().set_enabled(false);
    obs::SpanTracer::Global().Clear();
    obs::SpanTracer::Global().set_capacity(obs::SpanTracer::kCapacity);
  }
};

bool HasSpan(const std::vector<obs::SpanEvent>& events,
             const std::string& cat, const std::string& name_prefix) {
  for (const obs::SpanEvent& e : events) {
    if (e.cat == cat && e.name.rfind(name_prefix, 0) == 0) return true;
  }
  return false;
}

TEST(SpanTracerTest, DisabledTracerRecordsNothing) {
  obs::SpanTracer& tracer = obs::SpanTracer::Global();
  tracer.Clear();
  tracer.set_enabled(false);
  {
    obs::Span span("test", "noop");
    EXPECT_FALSE(span.active());
  }
  EXPECT_EQ(tracer.size(), 0u);
}

TEST(SpanTracerTest, EnabledSpanRecordsIntervalWithArgs) {
  TracerGuard guard;
  {
    obs::Span span("test", "work");
    span.AddArg("k", "v");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::vector<obs::SpanEvent> events =
      obs::SpanTracer::Global().Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "work");
  EXPECT_EQ(events[0].cat, "test");
  EXPECT_GE(events[0].dur_us, 1000.0);
  EXPECT_GE(events[0].ts_us, 0.0);
  ASSERT_EQ(events[0].args.size(), 1u);
  EXPECT_EQ(events[0].args[0].first, "k");
  EXPECT_EQ(events[0].args[0].second, "v");
}

TEST(SpanTracerTest, EndIsIdempotentAndMoveTransfersOwnership) {
  TracerGuard guard;
  obs::Span span("test", "a");
  obs::Span moved = std::move(span);
  moved.End();
  moved.End();
  EXPECT_EQ(obs::SpanTracer::Global().size(), 1u);
}

std::vector<std::string> SpanNames() {
  std::vector<std::string> names;
  for (const obs::SpanEvent& e : obs::SpanTracer::Global().Snapshot()) {
    names.push_back(e.name);
  }
  return names;
}

TEST(SpanTracerTest, BufferCapCountsDroppedSpans) {
  TracerGuard guard;
  obs::SpanTracer::Global().set_capacity(2);
  for (int i = 0; i < 5; ++i) {
    obs::Span span("test", "s" + std::to_string(i));
  }
  EXPECT_EQ(obs::SpanTracer::Global().size(), 2u);
  EXPECT_EQ(obs::SpanTracer::Global().dropped(), 3u);
  EXPECT_EQ(SpanNames(), (std::vector<std::string>{"s3", "s4"}));
  obs::SpanTracer::Global().Clear();
  EXPECT_EQ(obs::SpanTracer::Global().dropped(), 0u);
}

// A full ring overwrites its oldest span, so a dump taken at any point
// holds the most recent activity rather than the first spans ever seen.
TEST(SpanTracerTest, FullBufferKeepsTheNewestSpans) {
  TracerGuard guard;
  obs::SpanTracer::Global().set_capacity(3);
  for (int i = 0; i < 10; ++i) {
    obs::Span span("test", "s" + std::to_string(i));
  }
  EXPECT_EQ(SpanNames(), (std::vector<std::string>{"s7", "s8", "s9"}));
  EXPECT_EQ(obs::SpanTracer::Global().dropped(), 7u);
  { obs::Span latest("test", "latest"); }
  EXPECT_EQ(SpanNames(), (std::vector<std::string>{"s8", "s9", "latest"}));
  EXPECT_EQ(obs::SpanTracer::Global().dropped(), 8u);
}

TEST(SpanTracerTest, RaiiSpansNestStrictlyAcrossThreads) {
  TracerGuard guard;
  common::ThreadPool pool(3);
  pool.Run(8, [](size_t task) {
    obs::Span outer("test", "outer" + std::to_string(task));
    for (int i = 0; i < 3; ++i) {
      obs::Span inner("test", "inner");
      obs::Span innermost("test", "innermost");
    }
  });
  const std::vector<obs::SpanEvent> events =
      obs::SpanTracer::Global().Snapshot();
  EXPECT_EQ(events.size(), 8u * (1 + 3 * 2));
  const common::Status nesting = obs::ValidateSpanNesting(events);
  EXPECT_TRUE(nesting.ok()) << nesting;
}

TEST(SpanTracerTest, ThreadIdsAreDenseAndStable) {
  const int a = obs::CurrentThreadId();
  EXPECT_EQ(a, obs::CurrentThreadId());
  int b = -1;
  std::thread t([&b] { b = obs::CurrentThreadId(); });
  t.join();
  EXPECT_NE(a, b);
  EXPECT_GE(b, 0);
}

TEST(TraceExportTest, ChromeJsonRoundTrips) {
  std::vector<obs::SpanEvent> events;
  obs::SpanEvent a;
  a.name = "parse \"q\"\n";  // Exercises string escaping.
  a.cat = "frontend";
  a.ts_us = 1.5;
  a.dur_us = 1234.0625;
  a.tid = 3;
  a.args = {{"rows", "42"}, {"path", "a\\b"}};
  events.push_back(a);
  obs::SpanEvent b;
  b.name = "execute";
  b.cat = "exec";
  b.ts_us = 0.0078125;
  b.dur_us = 2.0;
  b.tid = 0;
  events.push_back(b);

  const std::string json = obs::ToChromeTraceJson(events);
  auto parsed = obs::ParseChromeTrace(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->size(), events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ((*parsed)[i].name, events[i].name);
    EXPECT_EQ((*parsed)[i].cat, events[i].cat);
    EXPECT_EQ((*parsed)[i].ts_us, events[i].ts_us);
    EXPECT_EQ((*parsed)[i].dur_us, events[i].dur_us);
    EXPECT_EQ((*parsed)[i].tid, events[i].tid);
    EXPECT_EQ((*parsed)[i].args, events[i].args);
  }
}

TEST(TraceExportTest, ParseRejectsMalformedJson) {
  EXPECT_FALSE(obs::ParseChromeTrace("{").ok());
  EXPECT_FALSE(obs::ParseChromeTrace("[]").ok());
  EXPECT_FALSE(obs::ParseChromeTrace("{\"traceEvents\": 7}").ok());
  EXPECT_FALSE(
      obs::ParseChromeTrace("{\"traceEvents\": [{\"ph\": \"X\"}]}").ok());
}

TEST(TraceExportTest, ValidateSpanNestingCatchesOverlap) {
  std::vector<obs::SpanEvent> good;
  obs::SpanEvent outer{"outer", "t", 0.0, 100.0, 1, {}};
  obs::SpanEvent inner{"inner", "t", 10.0, 50.0, 1, {}};
  good.push_back(outer);
  good.push_back(inner);
  EXPECT_TRUE(obs::ValidateSpanNesting(good).ok());

  std::vector<obs::SpanEvent> bad = good;
  bad[1].dur_us = 150.0;  // Starts inside outer, ends past it.
  EXPECT_FALSE(obs::ValidateSpanNesting(bad).ok());

  // The same intervals on different threads are independent.
  bad[1].tid = 2;
  EXPECT_TRUE(obs::ValidateSpanNesting(bad).ok());
}

// ---- Profiler / feedback-store units -------------------------------------

TEST(ProfilerTest, DistinctValueSelectivityPerSection51) {
  obs::PredicateProfiler& profiler = obs::PredicateProfiler::Global();
  profiler.Reset();
  // Value "a" passes and repeats: it must count once, matching the
  // distinct-binding semantics the predicate cache bills by.
  profiler.Record("f", 0.001, "a", true);
  profiler.Record("f", 0.001, "a", true);
  profiler.Record("f", 0.001, "b", false);
  profiler.Record("f", 0.001, "c", false);
  profiler.Record("f", 0.001, "d", false);
  const auto p = profiler.Get("f");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->invocations, 5u);
  EXPECT_EQ(p->distinct_inputs, 4u);
  EXPECT_EQ(p->distinct_passes, 1u);
  EXPECT_DOUBLE_EQ(p->ObservedSelectivity(0.9), 0.25);
  EXPECT_NEAR(p->mean_seconds(), 0.001, 1e-12);
  EXPECT_NEAR(p->ObservedCostIos(1e-4), 10.0, 1e-9);
  profiler.Reset();
  EXPECT_FALSE(profiler.Get("f").has_value());
}

TEST(ProfilerTest, NonBooleanFunctionsHaveNoSelectivity) {
  obs::PredicateProfiler& profiler = obs::PredicateProfiler::Global();
  profiler.Reset();
  profiler.Record("g", 0.002, "", std::nullopt);
  const auto p = profiler.Get("g");
  ASSERT_TRUE(p.has_value());
  EXPECT_FALSE(p->has_selectivity);
  EXPECT_DOUBLE_EQ(p->ObservedSelectivity(0.7), 0.7);
  profiler.Reset();
}

TEST(ProfilerTest, RankDriftThresholdIsRelative) {
  EXPECT_FALSE(obs::RankDriftExceeds(-0.5, -0.5, 0.5));
  EXPECT_FALSE(obs::RankDriftExceeds(-0.5, -0.4, 0.5));
  EXPECT_TRUE(obs::RankDriftExceeds(-0.005, -0.5, 0.5));
  EXPECT_TRUE(obs::RankDriftExceeds(-0.5, -0.005, 0.5));
  EXPECT_FALSE(obs::RankDriftExceeds(0.0, 0.0, 0.5));
}

TEST(FeedbackStoreTest, AbsorbProfilesConvertsWallToIoUnits) {
  obs::PredicateProfiler& profiler = obs::PredicateProfiler::Global();
  obs::PredicateFeedbackStore& store = obs::PredicateFeedbackStore::Global();
  profiler.Reset();
  store.Clear();
  profiler.Record("f", 0.001, "a", true);   // 10 I/Os per call.
  profiler.Record("f", 0.001, "b", false);
  EXPECT_EQ(store.AbsorbProfiles(profiler), 1u);
  const auto fb = store.Lookup("f");
  ASSERT_TRUE(fb.has_value());
  EXPECT_NEAR(fb->cost_per_call, 10.0, 1e-9);
  EXPECT_TRUE(fb->has_selectivity);
  EXPECT_DOUBLE_EQ(fb->selectivity, 0.5);
  EXPECT_EQ(fb->samples, 2u);
  store.Clear();
  EXPECT_FALSE(store.Lookup("f").has_value());
  profiler.Reset();
}

// ---- Full-lifecycle traces over the benchmark database -------------------

class TracedQueryTest : public ::testing::Test {
 protected:
  TracedQueryTest() {
    config_.scale = 120;
    config_.table_numbers = {1, 3, 6, 7, 9, 10};
    EXPECT_TRUE(workload::LoadBenchmarkDatabase(&db_, config_).ok());
    EXPECT_TRUE(workload::RegisterBenchmarkFunctions(&db_).ok());
  }

  workload::Database db_;
  workload::BenchmarkConfig config_;
};

TEST_F(TracedQueryTest, BenchmarkSuiteEmitsValidChromeTrace) {
  TracerGuard guard;
  serve::SessionManager manager(&db_);
  auto session = manager.CreateSession();
  session->options().cost_params.parallel_workers = 2;
  for (const workload::BenchmarkQuery& q :
       workload::BenchmarkQueries(config_)) {
    auto m =
        workload::Measure(&db_, session.get(), "EXPLAIN ANALYZE " + q.sql);
    ASSERT_TRUE(m.ok()) << m.status();
  }

  const std::vector<obs::SpanEvent> events =
      obs::SpanTracer::Global().Snapshot();
  EXPECT_TRUE(HasSpan(events, "query", "query"));
  EXPECT_TRUE(HasSpan(events, "optimize", "optimize"));
  EXPECT_TRUE(HasSpan(events, "optimize", "dp.level"));
  EXPECT_TRUE(HasSpan(events, "exec", "execute"));
  EXPECT_TRUE(HasSpan(events, "exec", "open:"));
  EXPECT_TRUE(HasSpan(events, "exec", "batch:"));

  const common::Status nesting = obs::ValidateSpanNesting(events);
  EXPECT_TRUE(nesting.ok()) << nesting;

  const std::string json = obs::ToChromeTraceJson(events);
  auto parsed = obs::ParseChromeTrace(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->size(), events.size());
}

TEST_F(TracedQueryTest, FrontendSpansCoverParseBindRewrite) {
  TracerGuard guard;
  auto spec = subquery::ParseBindRewrite(
      "SELECT * FROM t3 WHERE t3.a > 0", &db_.catalog());
  ASSERT_TRUE(spec.ok()) << spec.status();
  const std::vector<obs::SpanEvent> events =
      obs::SpanTracer::Global().Snapshot();
  EXPECT_TRUE(HasSpan(events, "frontend", "parse"));
  EXPECT_TRUE(HasSpan(events, "frontend", "bind"));
  EXPECT_TRUE(HasSpan(events, "frontend", "rewrite"));
  EXPECT_TRUE(obs::ValidateSpanNesting(events).ok());
}

TEST_F(TracedQueryTest, ParallelWorkerSpansLandOnPoolThreads) {
  // Expensive, cache-hostile predicate so the filter fans batches across
  // the pool; a pre-created pool lets the test learn the worker tids.
  catalog::FunctionDef def;
  def.name = "spanslow";
  def.cost_per_call = 50.0;
  def.selectivity = 0.5;
  def.cacheable = false;
  def.impl = [](const std::vector<types::Value>& args) {
    std::this_thread::sleep_for(std::chrono::microseconds(20));
    return types::Value(args[0].AsInt64() % 2 == 0);
  };
  ASSERT_TRUE(db_.catalog().functions().Register(def).ok());

  cost::CostParams cost_params;
  cost_params.parallel_workers = 3;
  exec::ExecContext ctx;
  ctx.catalog = &db_.catalog();
  ctx.cost_params = cost_params;
  ctx.thread_pool = std::make_shared<common::ThreadPool>(
      ctx.cost_params.parallel_workers - 1);

  // The tid universe: the pool's threads plus this (coordinator) thread.
  // Tasks sleep long enough that no thread can drain the queue alone, so
  // every pool thread claims at least one and registers its tid.
  std::set<int> known_tids{obs::CurrentThreadId()};
  std::mutex mu;
  ctx.thread_pool->Run(16, [&](size_t) {
    {
      std::lock_guard<std::mutex> lock(mu);
      known_tids.insert(obs::CurrentThreadId());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  });
  ASSERT_EQ(known_tids.size(),
            static_cast<size_t>(ctx.cost_params.parallel_workers));

  auto spec = parser::ParseAndBind("SELECT * FROM t3 WHERE spanslow(t3.ua)",
                                   db_.catalog());
  ASSERT_TRUE(spec.ok()) << spec.status();
  optimizer::Optimizer opt(&db_.catalog(), cost_params);
  auto result = opt.Optimize(*spec, optimizer::Algorithm::kMigration);
  ASSERT_TRUE(result.ok()) << result.status();
  for (const plan::TableRef& ref : spec->tables) {
    auto table = db_.catalog().GetTable(ref.table_name);
    ASSERT_TRUE(table.ok());
    ctx.binding[ref.alias] = *table;
  }

  TracerGuard guard;
  auto rows = exec::ExecutePlan(*result->plan, &ctx, nullptr, nullptr);
  ASSERT_TRUE(rows.ok()) << rows.status();

  const std::vector<obs::SpanEvent> events =
      obs::SpanTracer::Global().Snapshot();
  std::set<int> worker_tids;
  for (const obs::SpanEvent& e : events) {
    if (e.cat != "exec.parallel") continue;
    EXPECT_EQ(e.name, "worker");
    EXPECT_TRUE(known_tids.count(e.tid) > 0)
        << "worker span on unknown tid " << e.tid;
    worker_tids.insert(e.tid);
  }
  EXPECT_GE(worker_tids.size(), 2u)
      << "expected worker spans on more than one thread";
  EXPECT_TRUE(obs::ValidateSpanNesting(events).ok());
}

}  // namespace
}  // namespace ppp

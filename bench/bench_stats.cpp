// ANALYZE alone flipping predicate placement — no runtime feedback needed.
// The declared catalog stats claim the join key of r is unique, so the
// join looks reducing (fan-out 0.2 over r) and the optimizer pulls the
// expensive predicate above it, expecting few survivors. In truth r.k has
// heavy duplicates: the join explodes 8x, and evaluating the predicate
// after it costs 8x the invocations.
//
//   declared   r.k unique     -> join sel over r = 0.2, rank -inf (free,
//                                first); expensive predicate hoisted above
//   collected  ndv(r.k) ~ 50  -> join fan-out 8 over r, rank +inf;
//                                predicate stays below, on r's scan
//
// The flip comes purely from ANALYZE's NDV sketches driving the per-input
// join selectivity (paper §3.2) — the feedback store stays empty and no
// query ran before the statistics were collected. Checked: invocation
// counts drop by the fan-out factor, wall time improves, results are
// identical, EXPLAIN provenance tags flip decl -> stats. Before/after
// land in BENCH_stats.json.

#include <cstdio>
#include <string>
#include <thread>
#include <chrono>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "obs/profiler.h"
#include "stats/collector.h"

int main() {
  using namespace ppp;
  using types::Tuple;
  using types::TypeId;
  using types::Value;

  const int64_t scale = bench::BenchScale(100);
  const int64_t keys = scale / 2;        // Shared join-key domain.
  const int64_t rows_r = 20 * scale;     // 40 copies of each key.
  const int64_t rows_s = 4 * scale;      // 8 copies of each key.
  const int64_t join_rows = keys * (rows_r / keys) * (rows_s / keys);

  workload::Database db;
  auto r = db.catalog().CreateTable(
      "r", {{"k", TypeId::kInt64}, {"v", TypeId::kInt64}});
  PPP_CHECK(r.ok()) << r.status().ToString();
  for (int64_t i = 0; i < rows_r; ++i) {
    PPP_CHECK((*r)->Insert(Tuple({Value(i % keys), Value(i)})).ok());
  }
  auto s = db.catalog().CreateTable("s", {{"k", TypeId::kInt64}});
  PPP_CHECK(s.ok()) << s.status().ToString();
  for (int64_t i = 0; i < rows_s; ++i) {
    PPP_CHECK((*s)->Insert(Tuple({Value(i % keys)})).ok());
  }
  PPP_CHECK((*r)->Analyze().ok());
  PPP_CHECK((*s)->Analyze().ok());

  // The planted lie: r.k declared unique. Every row count above is real;
  // only this declaration inverts the join's true fan-out.
  catalog::ColumnStats lie;
  lie.num_distinct = rows_r;
  lie.min_value = 0;
  lie.max_value = rows_r - 1;
  PPP_CHECK((*r)->SetDeclaredStats("k", lie).ok());

  // Uncacheable expensive predicate on r alone, so invocation counters
  // are exact evaluation counts.
  catalog::FunctionDef expensive;
  expensive.name = "expensive";
  expensive.cost_per_call = 50.0;
  expensive.selectivity = 0.5;
  expensive.return_type = TypeId::kBool;
  expensive.cacheable = false;
  expensive.impl = [](const std::vector<Value>& args) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    return Value(args[0].AsInt64() % 2 == 0);
  };
  PPP_CHECK(db.catalog().functions().Register(std::move(expensive)).ok());

  // No runtime feedback anywhere: the flip must come from ANALYZE alone.
  obs::PredicateFeedbackStore::Global().Clear();

  // Default session knobs: PredicateMigration, use_collected_stats on.
  serve::SessionManager manager(&db);
  const std::unique_ptr<serve::Session> session = manager.CreateSession();
  const std::string sql =
      "EXPLAIN ANALYZE SELECT * FROM r, s WHERE r.k = s.k AND expensive(r.v)";

  bench::PrintHeader(
      "ANALYZE-driven placement (" + std::to_string(rows_r) + " x " +
      std::to_string(rows_s) + " rows, " + std::to_string(keys) +
      " join keys, declared r.k unique)");

  // Run 1: declared stats only (no ANALYZE has happened). The join looks
  // reducing, so the expensive predicate is evaluated above it — once per
  // joined row.
  auto before = workload::Measure(&db, session.get(), sql);
  PPP_CHECK(before.ok()) << before.status().ToString();
  before->algorithm = "declared";
  PPP_CHECK(before->plan_text.find("~decl") != std::string::npos &&
            before->plan_text.find("~stats") == std::string::npos)
      << "pre-ANALYZE plan must carry only declared tags:\n"
      << before->plan_text;
  PPP_CHECK(before->invocations.at("expensive") ==
            static_cast<uint64_t>(join_rows))
      << "declared plan should evaluate the predicate per joined row, got "
      << before->invocations.at("expensive") << " of " << join_rows;
  std::printf("declared plan:\n%s\n", before->plan_text.c_str());

  // ANALYZE both tables. No query result or profile feeds this — only the
  // reservoir sample and its sketches.
  auto analyzed = stats::AnalyzeAll(&db.catalog(),
                                    stats::AnalyzeOptions::Default());
  PPP_CHECK(analyzed.ok()) << analyzed.ToString();
  PPP_CHECK(obs::PredicateFeedbackStore::Global().size() == 0)
      << "feedback store must stay empty: the flip is ANALYZE-only";

  // Run 2: collected stats. NDV sketches expose the duplicate keys, the
  // join's per-input selectivity exceeds 1, and the predicate stays below
  // it — once per r row, 8x fewer.
  auto after = workload::Measure(&db, session.get(), sql);
  PPP_CHECK(after.ok()) << after.status().ToString();
  after->algorithm = "analyzed";
  PPP_CHECK(after->plan_text.find("~stats") != std::string::npos)
      << "post-ANALYZE plan must carry stats tags:\n" << after->plan_text;
  PPP_CHECK(after->invocations.at("expensive") ==
            static_cast<uint64_t>(rows_r))
      << "analyzed plan should evaluate the predicate per r row, got "
      << after->invocations.at("expensive") << " of " << rows_r;
  PPP_CHECK(after->output_rows == before->output_rows)
      << "statistics must steer the plan, never the answer";
  std::printf("analyzed plan:\n%s\n", after->plan_text.c_str());

  std::printf("%-10s %12s %14s %12s %12s\n", "config", "wall (s)",
              "invocations", "charged", "rows");
  for (const workload::Measurement* m : {&*before, &*after}) {
    std::printf("%-10s %12.3f %14llu %12.0f %12llu\n", m->algorithm.c_str(),
                m->wall_seconds,
                static_cast<unsigned long long>(
                    m->invocations.at("expensive")),
                m->charged_time,
                static_cast<unsigned long long>(m->output_rows));
  }
  PPP_CHECK(after->wall_seconds < before->wall_seconds)
      << "fewer evaluations of a 100us predicate must be faster";
  std::printf(
      "\nANALYZE alone cut invocations %.1fx and wall time %.2fx.\n",
      static_cast<double>(before->invocations.at("expensive")) /
          static_cast<double>(after->invocations.at("expensive")),
      before->wall_seconds / after->wall_seconds);

  bench::MaybeWriteBenchJson("stats", {*before, *after});
  return 0;
}

// Plan-lifecycle observability: overhead, parity, and the ANALYZE-induced
// plan flip seen end to end through the history.
//
// Phase 1 runs the Q1-Q5 mix with the plan audit + history disabled, then
// enabled (the shipped default), at 1 and 4 workers: results and UDF
// invocation counters must be byte-identical either way, and the enabled
// run must stay under 2% wall overhead (absolute allowance at smoke
// scales, where jitter swamps a relative measure).
//
// Phase 2 replants bench_stats' declared-lie scenario: r.k is declared
// unique, so the expensive predicate is hoisted above the join; ANALYZE
// exposes the duplicate keys and the next execution of the *same query
// text* runs a different plan. The history must then hold two fingerprints
// for one text_hash, the plan.changed counter must tick exactly once, the
// flip execution's query-log record must carry the plan_changed flag, and
// the faster changed-to plan must never be flagged regressed. Both tables
// are SELECTed through the ordinary SQL path to prove the lifecycle is
// introspectable without side channels.
//
// Emits BENCH_plans.json: the four mix bars (summed invocations gate
// regressions) plus the declared/analyzed flip pair.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/plan_audit.h"
#include "obs/plan_history.h"
#include "obs/query_log.h"
#include "stats/collector.h"

namespace {

/// One full pass over the paper's query mix at `workers`; returns the
/// summed measurements as a single bar named `label`.
ppp::workload::Measurement RunMix(ppp::workload::Database* db,
                                  const ppp::workload::BenchmarkConfig& config,
                                  const std::string& label, int workers) {
  ppp::cost::CostParams cost_params;
  cost_params.parallel_workers = workers;
  ppp::workload::Measurement total;
  total.algorithm = label;
  for (const char* id : {"Q1", "Q2", "Q3", "Q4", "Q5"}) {
    const ppp::workload::Measurement m = ppp::bench::RunQuery(
        db, config, id, ppp::optimizer::Algorithm::kMigration, cost_params);
    total.wall_seconds += m.wall_seconds;
    total.charged_time += m.charged_time;
    total.output_rows += m.output_rows;
    for (const auto& [fn, count] : m.invocations) {
      total.invocations[fn] += count;
    }
  }
  return total;
}

void SetLifecycle(bool on) {
  ppp::obs::PlanAudit::Global().set_enabled(on);
  ppp::obs::PlanHistory::Global().set_enabled(on);
}

}  // namespace

int main() {
  using namespace ppp;
  using types::Tuple;
  using types::TypeId;
  using types::Value;

  const int64_t scale = bench::BenchScale(100);
  auto db = bench::MakeBenchDatabase(scale);
  workload::BenchmarkConfig config;
  config.scale = scale;

  bench::PrintHeader("Plan-lifecycle overhead (scale " +
                     std::to_string(scale) + ")");

  constexpr int kTrials = 3;
  SetLifecycle(false);
  RunMix(db.get(), config, "warmup", 1);  // First-touch costs hit no phase.

  std::vector<workload::Measurement> bars;
  for (const int workers : {1, 4}) {
    workload::Measurement off;
    SetLifecycle(false);
    for (int trial = 0; trial < kTrials; ++trial) {
      workload::Measurement m = RunMix(
          db.get(), config, "off-w" + std::to_string(workers), workers);
      if (trial == 0 || m.wall_seconds < off.wall_seconds) {
        off = std::move(m);
      }
    }

    SetLifecycle(true);
    obs::PlanAudit::Global().Clear();
    obs::PlanHistory::Global().Clear();
    workload::Measurement on;
    for (int trial = 0; trial < kTrials; ++trial) {
      workload::Measurement m = RunMix(
          db.get(), config, "on-w" + std::to_string(workers), workers);
      if (trial == 0 || m.wall_seconds < on.wall_seconds) on = std::move(m);
    }

    PPP_CHECK(off.output_rows == on.output_rows)
        << "plan-lifecycle tracking must never change answers (w"
        << workers << ")";
    PPP_CHECK(off.invocations == on.invocations)
        << "plan-lifecycle tracking must not change invocation counts (w"
        << workers << ")";
    PPP_CHECK(obs::PlanAudit::Global().total() > 0)
        << "enabled phase must have audited operators";
    PPP_CHECK(obs::PlanHistory::Global().size() >= 5u)
        << "enabled phase must have history for the mix, got "
        << obs::PlanHistory::Global().size();

    const double overhead =
        off.wall_seconds > 0.0
            ? (on.wall_seconds - off.wall_seconds) / off.wall_seconds
            : 0.0;
    std::printf("%-8s %12s %14s %12s\n", "config", "wall (s)", "rows",
                "overhead");
    std::printf("%-8s %12.4f %14llu %12s\n", off.algorithm.c_str(),
                off.wall_seconds,
                static_cast<unsigned long long>(off.output_rows), "-");
    std::printf("%-8s %12.4f %14llu %11.2f%%\n", on.algorithm.c_str(),
                on.wall_seconds,
                static_cast<unsigned long long>(on.output_rows),
                overhead * 100.0);

    // The acceptance bar: < 2% relative overhead, with an equivalent
    // absolute allowance at smoke scales (see bench_introspect).
    const double slack = std::max(0.02 * off.wall_seconds, 0.010);
    PPP_CHECK(on.wall_seconds - off.wall_seconds <= slack)
        << "plan-lifecycle overhead " << overhead * 100.0
        << "% exceeds 2% at w" << workers << " (" << off.wall_seconds
        << "s off, " << on.wall_seconds << "s on)";
    bars.push_back(std::move(off));
    bars.push_back(std::move(on));
  }

  // Phase 2: the ANALYZE-induced flip, watched through the history.
  bench::PrintHeader("Plan change detection (declared lie -> ANALYZE flip)");
  const int64_t keys = scale / 2;
  const int64_t rows_r = 20 * scale;
  const int64_t rows_s = 4 * scale;

  workload::Database flip_db;
  auto r = flip_db.catalog().CreateTable(
      "r", {{"k", TypeId::kInt64}, {"v", TypeId::kInt64}});
  PPP_CHECK(r.ok()) << r.status().ToString();
  for (int64_t i = 0; i < rows_r; ++i) {
    PPP_CHECK((*r)->Insert(Tuple({Value(i % keys), Value(i)})).ok());
  }
  auto s = flip_db.catalog().CreateTable("s", {{"k", TypeId::kInt64}});
  PPP_CHECK(s.ok()) << s.status().ToString();
  for (int64_t i = 0; i < rows_s; ++i) {
    PPP_CHECK((*s)->Insert(Tuple({Value(i % keys)})).ok());
  }
  PPP_CHECK((*r)->Analyze().ok());
  PPP_CHECK((*s)->Analyze().ok());
  catalog::ColumnStats lie;  // The planted lie: r.k declared unique.
  lie.num_distinct = rows_r;
  lie.min_value = 0;
  lie.max_value = rows_r - 1;
  PPP_CHECK((*r)->SetDeclaredStats("k", lie).ok());
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
  PPP_CHECK(
      flip_db.catalog().functions().Register(std::move(expensive)).ok());

  // Default session knobs: PredicateMigration, use_collected_stats on.
  serve::SessionManager manager(&flip_db);
  const std::unique_ptr<serve::Session> session = manager.CreateSession();
  const auto measure = [&](const std::string& sql) {
    auto m = workload::Measure(&flip_db, session.get(), sql);
    PPP_CHECK(m.ok()) << m.status().ToString();
    return *m;
  };

  obs::PlanHistory& history = obs::PlanHistory::Global();
  SetLifecycle(true);
  history.Clear();
  obs::QueryLog::Global().Clear();
  obs::Counter* changed_counter =
      obs::MetricsRegistry::Global().GetCounter("plan.changed");
  obs::Counter* regressed_counter =
      obs::MetricsRegistry::Global().GetCounter("plan.regressed");
  const uint64_t changed_before = changed_counter->value();
  const uint64_t regressed_before = regressed_counter->value();

  const auto run_once = [&](const std::string& label) {
    workload::Measurement m = measure(
        "EXPLAIN ANALYZE SELECT * FROM r, s WHERE r.k = s.k "
        "AND expensive(r.v)");
    m.algorithm = label;
    return m;
  };

  // Enough declared-plan executions to establish a mean (>= warmup), then
  // the same text again after ANALYZE: one plan change, no regression
  // (the changed-to plan is the faster one).
  workload::Measurement declared = run_once("declared");
  for (uint64_t i = 1; i < obs::PlanHistory::kWarmupExecutions; ++i) {
    run_once("declared");
  }
  auto analyzed_status = stats::AnalyzeAll(&flip_db.catalog(),
                                           stats::AnalyzeOptions::Default());
  PPP_CHECK(analyzed_status.ok()) << analyzed_status.ToString();
  workload::Measurement analyzed = run_once("analyzed");
  for (uint64_t i = 1; i < obs::PlanHistory::kWarmupExecutions; ++i) {
    run_once("analyzed");
  }

  PPP_CHECK(analyzed.output_rows == declared.output_rows)
      << "the flip must change the plan, never the answer";
  PPP_CHECK(analyzed.invocations.at("expensive") <
            declared.invocations.at("expensive"))
      << "the analyzed plan must evaluate the predicate below the join";

  // The history now holds two fingerprints for one normalized query.
  uint64_t flip_text_hash = 0;
  {
    std::vector<obs::PlanHistoryEntry> entries = history.Snapshot();
    uint64_t plans = 0;
    for (const obs::PlanHistoryEntry& e : entries) {
      if (e.executions >= obs::PlanHistory::kWarmupExecutions) {
        flip_text_hash = e.text_hash;
      }
    }
    PPP_CHECK(flip_text_hash != 0) << "flip query missing from the history";
    for (const obs::PlanHistoryEntry& e : entries) {
      if (e.text_hash == flip_text_hash) ++plans;
    }
    PPP_CHECK(plans >= 2)
        << "one text_hash must map to two fingerprints after the flip, got "
        << plans;
    PPP_CHECK(history.PlansFor(flip_text_hash) == plans);
  }
  PPP_CHECK(changed_counter->value() == changed_before + 1)
      << "plan.changed must tick exactly once for the flip, got +"
      << changed_counter->value() - changed_before;
  PPP_CHECK(regressed_counter->value() == regressed_before)
      << "a faster changed-to plan must never count as a regression";

  // The flip execution's log record carries the flag.
  uint64_t flagged = 0;
  for (const obs::QueryLogRecord& rec : obs::QueryLog::Global().Snapshot()) {
    if (rec.plan_changed) ++flagged;
    PPP_CHECK(!rec.plan_regressed);
  }
  PPP_CHECK(flagged == 1)
      << "exactly one query-log record must be flagged plan_changed, got "
      << flagged;

  // Both lifecycle tables answer through the ordinary SQL path.
  const workload::Measurement rows = measure(
      "EXPLAIN ANALYZE SELECT ppp_plan_history.plan_fingerprint, "
      "ppp_plan_history.executions, ppp_plan_history.plan_changed "
      "FROM ppp_plan_history");
  PPP_CHECK(rows.output_rows >= 2)
      << "ppp_plan_history must expose both plans, got " << rows.output_rows;
  measure(
      "EXPLAIN ANALYZE SELECT count(*) FROM ppp_operator_audit "
      "WHERE ppp_operator_audit.udf_invocations > 0");

  std::printf("%-10s %12s %14s %12s\n", "config", "wall (s)",
              "invocations", "rows");
  for (const workload::Measurement* m : {&declared, &analyzed}) {
    std::printf("%-10s %12.3f %14llu %12llu\n", m->algorithm.c_str(),
                m->wall_seconds,
                static_cast<unsigned long long>(
                    m->invocations.at("expensive")),
                static_cast<unsigned long long>(m->output_rows));
  }
  std::printf("\nflip detected: text_hash %016llx carries %zu plans, "
              "plan.changed +1, 1 flagged log record, 0 regressions.\n",
              static_cast<unsigned long long>(flip_text_hash),
              history.PlansFor(flip_text_hash));

  bars.push_back(std::move(declared));
  bars.push_back(std::move(analyzed));
  bench::MaybeWriteBenchJson("plans", bars);
  return 0;
}

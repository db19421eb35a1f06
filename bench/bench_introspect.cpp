// Introspection overhead and the "observe the observer" query. Phase 1
// runs the Q1-Q5 mix with the query log disabled, phase 2 with it enabled
// (the shipped default): the per-query cost of two registry snapshots, the
// counter diff, and the ring append must stay under 2% of wall time.
// Phase 3 turns the log's contents back on itself: an analytical SELECT
// joining ppp_query_log with ppp_plan_history and grouping by the log's
// 1 s bucket, through the ordinary optimizer and executor, proving
// introspection needs no side channel. Phase 4 prices the three stores
// (query log, plan audit, plan history) where they are a visible share:
// index-point EXECUTEs through one session, stores off and on in
// interleaved blocks, min-of-5 per side. It is report-only, the figure
// perfbench's obs.telemetry_us is cross-checked against.
//
// Emits BENCH_introspect.json: logging_off / logging_on carry the mix
// totals (summed invocations are deterministic and gate regressions),
// introspect_join carries the analytical query, and point_stores_off /
// point_stores_on carry the point phase with wall_seconds per statement.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "obs/plan_audit.h"
#include "obs/plan_history.h"
#include "obs/query_log.h"
#include "serve/session.h"

namespace {

/// One full pass over the paper's query mix, each query an EXPLAIN ANALYZE
/// on `session`; returns the summed measurements as a single bar named
/// `label`.
ppp::workload::Measurement RunMix(ppp::workload::Database* db,
                                  ppp::serve::Session* session,
                                  const ppp::workload::BenchmarkConfig& config,
                                  const std::string& label) {
  ppp::workload::Measurement total;
  total.algorithm = label;
  for (const ppp::workload::BenchmarkQuery& q :
       ppp::workload::BenchmarkQueries(config)) {
    auto m = ppp::workload::Measure(db, session, "EXPLAIN ANALYZE " + q.sql);
    PPP_CHECK(m.ok()) << m.status().ToString();
    total.wall_seconds += m->wall_seconds;
    total.charged_time += m->charged_time;
    total.charged_io += m->charged_io;
    total.charged_udf += m->charged_udf;
    total.output_rows += m->output_rows;
    for (const auto& [fn, count] : m->invocations) {
      total.invocations[fn] += count;
    }
  }
  return total;
}

void SetTelemetryStores(bool on) {
  ppp::obs::QueryLog::Global().set_enabled(on);
  ppp::obs::PlanAudit::Global().set_enabled(on);
  ppp::obs::PlanHistory::Global().set_enabled(on);
}

/// One block of index-point EXECUTEs over `keys`; wall_seconds is the
/// mean per statement.
ppp::workload::Measurement RunPointBlock(ppp::serve::Session* session,
                                         const std::vector<int64_t>& keys,
                                         const std::string& label) {
  ppp::workload::Measurement m;
  m.algorithm = label;
  const auto start = std::chrono::steady_clock::now();
  for (const int64_t key : keys) {
    auto result = session->ExecutePrepared("point", {ppp::types::Value(key)});
    PPP_CHECK(result.ok()) << result.status().ToString();
    m.output_rows += result->rows.size();
  }
  m.wall_seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count() /
                   static_cast<double>(keys.size());
  return m;
}

}  // namespace

int main() {
  using namespace ppp;

  const int64_t scale = bench::BenchScale(100);
  auto db = bench::MakeBenchDatabase(scale);
  workload::BenchmarkConfig config;
  config.scale = scale;

  bench::PrintHeader("Introspection overhead (scale " +
                     std::to_string(scale) + ")");

  // One session for every phase: the mix and the analytical join run as
  // EXPLAIN ANALYZE (planned fresh, measured cold), the point phase as
  // EXECUTEs through the plan cache.
  serve::SessionManager manager(db.get());
  std::unique_ptr<serve::Session> session = manager.CreateSession();

  obs::QueryLog& log = obs::QueryLog::Global();
  constexpr int kTrials = 3;

  // Warm-up pass so first-touch costs (lazy counters, plan caches) hit
  // neither phase.
  log.set_enabled(false);
  RunMix(db.get(), session.get(), config, "warmup");

  // Min-of-N per phase: on a shared machine the minimum is the least noisy
  // estimate of the true cost.
  workload::Measurement off;
  for (int trial = 0; trial < kTrials; ++trial) {
    workload::Measurement m =
        RunMix(db.get(), session.get(), config, "logging_off");
    if (trial == 0 || m.wall_seconds < off.wall_seconds) off = std::move(m);
  }

  log.set_enabled(true);
  log.Clear();
  workload::Measurement on;
  for (int trial = 0; trial < kTrials; ++trial) {
    workload::Measurement m =
        RunMix(db.get(), session.get(), config, "logging_on");
    if (trial == 0 || m.wall_seconds < on.wall_seconds) on = std::move(m);
  }

  PPP_CHECK(log.size() >= 5u * kTrials)
      << "logging-on phase must have recorded the mix, got " << log.size();
  PPP_CHECK(off.output_rows == on.output_rows)
      << "the query log must never change answers";

  const double overhead =
      off.wall_seconds > 0.0
          ? (on.wall_seconds - off.wall_seconds) / off.wall_seconds
          : 0.0;
  std::printf("%-12s %12s %14s %12s\n", "config", "wall (s)", "rows",
              "overhead");
  std::printf("%-12s %12.4f %14llu %12s\n", "logging off", off.wall_seconds,
              static_cast<unsigned long long>(off.output_rows), "-");
  std::printf("%-12s %12.4f %14llu %11.2f%%\n", "logging on",
              on.wall_seconds,
              static_cast<unsigned long long>(on.output_rows),
              overhead * 100.0);

  // The acceptance bar: < 2% relative overhead. At smoke scales the mix
  // finishes in milliseconds where scheduler jitter swamps a relative
  // measure, so short runs get an equivalent absolute allowance instead.
  const double slack = std::max(0.02 * off.wall_seconds, 0.010);
  PPP_CHECK(on.wall_seconds - off.wall_seconds <= slack)
      << "query logging overhead " << overhead * 100.0 << "% exceeds 2% ("
      << off.wall_seconds << "s off, " << on.wall_seconds << "s on)";

  // Phase 3: the analytical query over the log itself, through the normal
  // parse/bind/optimize/execute path. Joining each logged query with its
  // plan's history and grouping by the 1 s bucket gives, per second, the
  // queries run, their wall and UDF totals, and how established their
  // plans were.
  auto join = workload::Measure(
      db.get(), session.get(),
      "EXPLAIN ANALYZE SELECT ppp_query_log.bucket, count(*), "
      "sum(ppp_query_log.wall_seconds), sum(ppp_query_log.udf_invocations), "
      "sum(ppp_plan_history.executions) "
      "FROM ppp_query_log, ppp_plan_history "
      "WHERE ppp_query_log.text_hash = ppp_plan_history.text_hash "
      "AND ppp_query_log.plan_fingerprint = "
      "ppp_plan_history.plan_fingerprint "
      "GROUP BY ppp_query_log.bucket");
  PPP_CHECK(join.ok()) << join.status().ToString();
  PPP_CHECK(join->output_rows >= 1)
      << "the logged mix must land in at least one bucket";
  join->algorithm = "introspect_join";
  std::printf("\nppp_query_log x ppp_plan_history plan:\n%s\n",
              join->explain_text.c_str());
  std::printf("introspect join: %llu one-second buckets in %.4fs\n",
              static_cast<unsigned long long>(join->output_rows),
              join->wall_seconds);

  // Phase 4: point queries, where per-statement bookkeeping is a visible
  // share. The first block warms the plan cache and the shared §5.1
  // caches; later blocks alternate stores off/on so host drift hits both
  // sides alike.
  PPP_CHECK(session
                ->Prepare("point",
                          "SELECT t3.a, t3.u10, t10.a, t10.u100 FROM t3, t10 "
                          "WHERE t3.a = $1 AND t3.a10 = t10.a10 "
                          "AND costly1(t10.ua)")
                .ok());
  std::vector<int64_t> keys;
  constexpr int64_t kPointKeys = 64;
  constexpr int kPointStatements = 2000;
  for (int i = 0; i < kPointStatements; ++i) {
    // 64 keys spread over t3.a's domain [0, 3 * scale).
    keys.push_back((static_cast<int64_t>(i) * 7919) % kPointKeys * 3 *
                   scale / kPointKeys);
  }
  SetTelemetryStores(true);
  RunPointBlock(session.get(), keys, "warmup");
  workload::Measurement point_off, point_on;
  constexpr int kPointTrials = 5;
  for (int trial = 0; trial < kPointTrials; ++trial) {
    for (const bool on : {false, true}) {
      SetTelemetryStores(on);
      workload::Measurement m = RunPointBlock(
          session.get(), keys, on ? "point_stores_on" : "point_stores_off");
      workload::Measurement& best = on ? point_on : point_off;
      if (trial == 0 || m.wall_seconds < best.wall_seconds) best = m;
    }
  }
  SetTelemetryStores(true);
  PPP_CHECK(point_off.output_rows == point_on.output_rows)
      << "the stores must never change answers";
  const double point_off_us = point_off.wall_seconds * 1e6;
  const double point_on_us = point_on.wall_seconds * 1e6;
  std::printf(
      "\npoint EXECUTE (%d per block, min of %d): stores off %.2f us/stmt, "
      "on %.2f us/stmt, telemetry %.2f us (%.1f%%)\n",
      kPointStatements, kPointTrials, point_off_us, point_on_us,
      point_on_us - point_off_us,
      point_off_us > 0.0
          ? (point_on_us - point_off_us) / point_off_us * 100.0
          : 0.0);

  // Determinism note for the regression gate: the two mix bars carry
  // identical invocation maps (logging cannot change evaluation counts).
  PPP_CHECK(off.invocations == on.invocations)
      << "query logging must not change invocation counts";

  bench::MaybeWriteBenchJson("introspect",
                             {off, on, *join, point_off, point_on});
  return 0;
}

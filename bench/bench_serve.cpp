// The serving layer under concurrent clients. Phase 1 measures what the
// statistics-keyed plan cache amortizes: plan-production time (parse +
// bind + rewrite + optimize on a miss, normalize + probe + binding rebuild
// on a hit) for each of Q1-Q5. Target: >= 10x lower on repeats
// (PPP_SERVE_MIN_OPT_SPEEDUP overrides; CI sets 1 under sanitizers).
//
// Phase 2 drives N in {1,2,4,8,16} session threads over a mixed Q1-Q5
// stream against a fresh SessionManager per N and reports QPS and p50/p99
// latency. The box has one core, so scaling comes from amortization, not
// parallel CPU: the first stream pays the optimizer misses and warms the
// cross-query shared predicate caches; the other N-1 streams ride them.
// Targets: QPS(8)/QPS(1) >= 3 (PPP_SERVE_MIN_SCALING), byte-identical
// results everywhere, and exact engine-wide UDF invocation parity between
// plancache on and off at 8 sessions.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "obs/query_log.h"
#include "serve/session.h"
#include "workload/measurement.h"
#include "workload/queries.h"

namespace {

/// Written by every realized-cost UDF call, from every session thread; an
/// atomic store the compiler must perform, so the burn loop feeding it
/// cannot be elided.
std::atomic<uint64_t> g_burn_sink{0};

/// Registers the benchmark UDFs with their declared cost *realized* as
/// CPU work: the same deterministic pass/fail decision as
/// RegisterBenchmarkFunctions (so Q1-Q5 answers are unchanged), plus
/// ~`cost` x 100 rounds of integer mixing per call. The stock impls
/// return in nanoseconds, which would make the shared predicate caches
/// irrelevant to wall time; here a cache hit saves real microseconds,
/// the quantity a serving layer amortizes across clients.
void RegisterRealizedCostFunctions(ppp::workload::Database* db) {
  using ppp::types::Value;
  const auto costly = [&](const std::string& name, double cost,
                          double selectivity) {
    ppp::catalog::FunctionDef def;
    def.name = name;
    def.cost_per_call = cost;
    def.selectivity = selectivity;
    def.return_type = ppp::types::TypeId::kBool;
    def.cacheable = true;
    const uint64_t rounds = static_cast<uint64_t>(cost * 100.0);
    def.impl = [selectivity, rounds](const std::vector<Value>& args) {
      uint64_t h = 0x9E3779B97F4A7C15ULL;
      for (const Value& v : args) {
        h ^= static_cast<uint64_t>(v.Hash()) + 0x9E3779B97F4A7C15ULL +
             (h << 6) + (h >> 2);
      }
      h ^= h >> 33;
      h *= 0xFF51AFD7ED558CCDULL;
      h ^= h >> 33;
      const double u =
          static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
      const bool pass = u < selectivity;
      // The realized cost: an unskippable mixing loop (its result feeds
      // g_burn_sink so the optimizer cannot elide it).
      uint64_t burn = h;
      for (uint64_t i = 0; i < rounds; ++i) {
        burn ^= burn >> 33;
        burn *= 0xFF51AFD7ED558CCDULL;
        burn += i;
      }
      g_burn_sink.store(burn, std::memory_order_relaxed);
      return Value(pass);
    };
    PPP_CHECK(db->catalog().functions().Register(std::move(def)).ok());
  };
  // Same (name, cost, selectivity) table as RegisterBenchmarkFunctions.
  costly("costly1", 1.0, 0.5);
  costly("costly10", 10.0, 0.5);
  costly("costly100", 100.0, 0.5);
  costly("costly1000", 1000.0, 0.5);
  costly("match100", 100.0, 0.002);
  costly("selective100", 100.0, 0.1);
}

}  // namespace

int main() {
  using namespace ppp;

  const int64_t scale = bench::BenchScale(200);
  workload::BenchmarkConfig config;
  config.scale = scale;
  config.table_numbers = {1, 3, 6, 7, 9, 10};
  auto db = std::make_unique<workload::Database>();
  {
    const common::Status status =
        workload::LoadBenchmarkDatabase(db.get(), config);
    PPP_CHECK(status.ok()) << status.ToString();
  }
  RegisterRealizedCostFunctions(db.get());

  std::vector<std::string> queries;
  std::vector<std::string> ids;
  for (const workload::BenchmarkQuery& q :
       workload::BenchmarkQueries(config)) {
    queries.push_back(q.sql);
    ids.push_back(q.id);
  }

  double min_opt_speedup = 10.0;
  if (const char* env = std::getenv("PPP_SERVE_MIN_OPT_SPEEDUP");
      env != nullptr && *env != '\0') {
    min_opt_speedup = std::atof(env);
  }
  double min_scaling = 3.0;
  if (const char* env = std::getenv("PPP_SERVE_MIN_SCALING");
      env != nullptr && *env != '\0') {
    min_scaling = std::atof(env);
  }

  std::vector<workload::Measurement> bars;

  // -- Phase 1: plan-production amortization ------------------------------
  bench::PrintHeader("Serving layer: plan cache + concurrent sessions "
                     "(scale " + std::to_string(scale) + ")");
  std::printf("%-4s %14s %14s %10s\n", "q", "miss (ms)", "hit (ms)",
              "speedup");
  double miss_total = 0.0;
  double hit_total = 0.0;
  std::vector<std::vector<std::string>> reference;
  {
    serve::SessionManager manager(db.get());
    auto session = manager.CreateSession();
    constexpr int kHitReps = 50;
    for (size_t q = 0; q < queries.size(); ++q) {
      auto miss = session->Execute(queries[q]);
      PPP_CHECK(miss.ok()) << miss.status().ToString();
      PPP_CHECK(!miss->plan_cache_hit) << ids[q] << " hit on first run";
      reference.push_back(
          workload::CanonicalResults(miss->rows, miss->schema));
      double hit_sum = 0.0;
      for (int r = 0; r < kHitReps; ++r) {
        auto hit = session->Execute(queries[q]);
        PPP_CHECK(hit.ok()) << hit.status().ToString();
        PPP_CHECK(hit->plan_cache_hit) << ids[q] << " missed on repeat";
        PPP_CHECK(workload::CanonicalResults(hit->rows, hit->schema) ==
                  reference[q])
            << ids[q] << " results changed on a plan-cache hit";
        hit_sum += hit->optimize_seconds;
      }
      const double hit_mean = hit_sum / kHitReps;
      miss_total += miss->optimize_seconds;
      hit_total += hit_mean;
      std::printf("%-4s %14.4f %14.4f %9.1fx\n", ids[q].c_str(),
                  miss->optimize_seconds * 1e3, hit_mean * 1e3,
                  miss->optimize_seconds / std::max(hit_mean, 1e-9));

      workload::Measurement m;
      m.algorithm = "optimize-" + ids[q];
      m.optimize_seconds = miss->optimize_seconds;
      m.wall_seconds = hit_mean;  // The amortized per-repeat plan cost.
      m.output_rows = miss->rows.size();
      bars.push_back(std::move(m));
    }
  }
  const double opt_speedup = miss_total / std::max(hit_total, 1e-9);
  std::printf("plan-production speedup on repeats: %.1fx (%s %.1fx "
              "floor)\n\n",
              opt_speedup, opt_speedup >= min_opt_speedup ? "ok, >=" :
              "BELOW", min_opt_speedup);

  // -- Phase 2: QPS scaling over sessions ---------------------------------
  // Each session runs the mixed stream twice; a fresh manager per config
  // makes every config pay its own warm-up (that is the quantity under
  // test). Returns {qps, udf_total}.
  constexpr int kStreamReps = 2;
  struct ConfigResult {
    double qps = 0.0;
    double p50_ms = 0.0;
    double p99_ms = 0.0;
    uint64_t udf_total = 0;
    bool identical = true;
  };
  const auto run_config = [&](size_t n_sessions,
                              bool plan_cache) -> ConfigResult {
    obs::QueryLog::Global().Clear();
    serve::SessionManager::Options options;
    options.plan_cache_enabled = plan_cache;
    serve::SessionManager manager(db.get(), options);
    std::vector<std::unique_ptr<serve::Session>> sessions;
    for (size_t i = 0; i < n_sessions; ++i) {
      sessions.push_back(manager.CreateSession());
    }
    std::vector<std::vector<double>> latencies(n_sessions);
    std::vector<bool> ok(n_sessions, true);
    const auto started = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    for (size_t i = 0; i < n_sessions; ++i) {
      threads.emplace_back([&, i]() {
        for (int rep = 0; rep < kStreamReps; ++rep) {
          for (size_t q = 0; q < queries.size(); ++q) {
            const auto t0 = std::chrono::steady_clock::now();
            auto r = sessions[i]->Execute(queries[q]);
            latencies[i].push_back(
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count());
            if (!r.ok() ||
                workload::CanonicalResults(r->rows, r->schema) !=
                    reference[q]) {
              ok[i] = false;
              return;
            }
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - started)
                            .count();
    ConfigResult result;
    std::vector<double> all;
    for (size_t i = 0; i < n_sessions; ++i) {
      result.identical = result.identical && ok[i];
      all.insert(all.end(), latencies[i].begin(), latencies[i].end());
    }
    std::sort(all.begin(), all.end());
    result.qps = static_cast<double>(all.size()) / std::max(wall, 1e-9);
    result.p50_ms = all[all.size() / 2] * 1e3;
    result.p99_ms = all[(all.size() * 99) / 100] * 1e3;
    for (const obs::QueryLogRecord& r : obs::QueryLog::Global().Snapshot()) {
      result.udf_total += r.udf_invocations;
    }
    return result;
  };

  std::printf("%-10s %10s %10s %10s %12s  (stream = %zu queries x %d)\n",
              "sessions", "qps", "p50 (ms)", "p99 (ms)", "udf",
              queries.size(), kStreamReps);
  double qps1 = 0.0;
  double qps8 = 0.0;
  bool identical = true;
  for (const size_t n : {size_t{1}, size_t{2}, size_t{4}, size_t{8},
                         size_t{16}}) {
    // Best of two runs: the regression gate diffs these walls against a
    // baseline, and a scheduler spike on one run shouldn't trip it. The
    // UDF totals must agree exactly between runs (determinism check).
    ConfigResult r = run_config(n, /*plan_cache=*/true);
    const ConfigResult again = run_config(n, /*plan_cache=*/true);
    identical = identical && r.identical && again.identical &&
                r.udf_total == again.udf_total;
    if (again.qps > r.qps) r = again;
    if (n == 1) qps1 = r.qps;
    if (n == 8) qps8 = r.qps;
    std::printf("%-10zu %10.1f %10.3f %10.3f %12llu\n", n, r.qps, r.p50_ms,
                r.p99_ms, static_cast<unsigned long long>(r.udf_total));
    workload::Measurement m;
    m.algorithm = "serve-" + std::to_string(n);
    m.wall_seconds =
        static_cast<double>(n * queries.size() * kStreamReps) /
        std::max(r.qps, 1e-9);
    m.output_rows = n * queries.size() * kStreamReps;
    bars.push_back(std::move(m));
  }

  // Invocation parity: the plan cache must never change what executes.
  const ConfigResult on8 = run_config(8, /*plan_cache=*/true);
  const ConfigResult off8 = run_config(8, /*plan_cache=*/false);
  identical = identical && on8.identical && off8.identical;
  const bool parity = on8.udf_total == off8.udf_total;
  std::printf("\nudf invocations at 8 sessions: plancache on %llu, off "
              "%llu (%s)\n",
              static_cast<unsigned long long>(on8.udf_total),
              static_cast<unsigned long long>(off8.udf_total),
              parity ? "exact parity" : "PARITY BROKEN");

  const double scaling = qps8 / std::max(qps1, 1e-9);
  std::printf("qps scaling 1 -> 8 sessions: %.2fx (%s %.1fx floor); "
              "results %s\n",
              scaling, scaling >= min_scaling ? "ok, >=" : "BELOW",
              min_scaling, identical ? "byte-identical" : "DIVERGED");

  bench::MaybeWriteBenchJson("serve", bars);
  return opt_speedup >= min_opt_speedup && scaling >= min_scaling &&
                 parity && identical
             ? 0
             : 1;
}

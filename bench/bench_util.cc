#include "bench/bench_util.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/logging.h"
#include "common/string_util.h"

namespace ppp::bench {

const optimizer::Algorithm kAllAlgorithms[7] = {
    optimizer::Algorithm::kPushDown,  optimizer::Algorithm::kPullUp,
    optimizer::Algorithm::kPullRank,  optimizer::Algorithm::kMigration,
    optimizer::Algorithm::kLdl,       optimizer::Algorithm::kLdlBushy,
    optimizer::Algorithm::kExhaustive,
};

int64_t BenchScale(int64_t default_scale) {
  const char* env = std::getenv("PPP_SCALE");
  if (env != nullptr) {
    const int64_t v = std::atoll(env);
    if (v > 0) return v;
  }
  return default_scale;
}

std::unique_ptr<workload::Database> MakeBenchDatabase(
    int64_t scale, const std::vector<int>& tables) {
  auto db = std::make_unique<workload::Database>();
  workload::BenchmarkConfig config;
  config.scale = scale;
  config.table_numbers = tables;
  common::Status status = workload::LoadBenchmarkDatabase(db.get(), config);
  PPP_CHECK(status.ok()) << status.ToString();
  status = workload::RegisterBenchmarkFunctions(db.get());
  PPP_CHECK(status.ok()) << status.ToString();
  return db;
}

/// PPP_BENCH_REPEAT=N (default 1): execute each bench query N times and
/// keep the run with the minimum wall — a noise floor for the regression
/// gate on loaded machines. N <= 1 leaves behavior unchanged.
size_t BenchRepeat() {
  const char* env = std::getenv("PPP_BENCH_REPEAT");
  if (env == nullptr) return 1;
  const long long v = std::atoll(env);
  return v > 1 ? static_cast<size_t>(v) : 1;
}

workload::Measurement RunQuery(workload::Database* db,
                               const workload::BenchmarkConfig& config,
                               const std::string& id,
                               optimizer::Algorithm algorithm,
                               cost::CostParams cost_params,
                               obs::OptTrace* trace) {
  auto sql = workload::BenchmarkSql(config, id);
  PPP_CHECK(sql.ok()) << sql.status().ToString();
  serve::SessionManager manager(db);
  serve::SessionOptions options;
  options.algorithm = algorithm;
  options.cost_params = cost_params;
  const std::unique_ptr<serve::Session> session =
      manager.CreateSession(options);
  const std::string statement = "EXPLAIN ANALYZE " + *sql;
  auto m = workload::Measure(db, session.get(), statement, trace);
  PPP_CHECK(m.ok()) << m.status().ToString();
  workload::Measurement best = *m;
  // Reruns keep the min-wall measurement whole (counters and wall from the
  // same run); the optimizer trace comes from the first run only.
  for (size_t i = 1; i < BenchRepeat(); ++i) {
    auto rerun = workload::Measure(db, session.get(), statement);
    PPP_CHECK(rerun.ok()) << rerun.status().ToString();
    if (rerun->wall_seconds < best.wall_seconds) best = *rerun;
  }
  return best;
}

bool TraceEnabled() {
  const char* env = std::getenv("PPP_TRACE");
  return env != nullptr && env[0] != '\0' &&
         !(env[0] == '0' && env[1] == '\0');
}

void MaybeWriteBenchJson(const std::string& name,
                         const std::vector<workload::Measurement>& bars) {
  const char* env = std::getenv("PPP_BENCH_JSON");
  if (env != nullptr && env[0] == '0' && env[1] == '\0') return;
  auto path = workload::WriteBenchJson(name, bars);
  if (!path.ok()) {
    std::printf("(bench json not written: %s)\n",
                path.status().ToString().c_str());
    return;
  }
  std::printf("wrote %s\n", path->c_str());
}

void PrintDpStats(const std::vector<workload::Measurement>& bars) {
  std::printf("DP enumeration statistics:\n");
  for (const workload::Measurement& m : bars) {
    std::printf("%-20s %s\n", m.algorithm.c_str(),
                m.dp_stats.ToString().c_str());
  }
}

void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

void PrintFigure(const std::string& caption,
                 const std::vector<workload::Measurement>& bars) {
  PPP_CHECK(!bars.empty());
  double best = bars[0].charged_time;
  for (const workload::Measurement& m : bars) {
    best = std::min(best, m.charged_time);
  }
  if (best <= 0) best = 1;
  std::printf("%s\n", caption.c_str());
  std::printf("%-20s %14s %14s %8s  %s\n", "algorithm", "measured", "est",
              "ratio", "invocations");
  for (const workload::Measurement& m : bars) {
    std::vector<std::string> invs;
    for (const auto& [name, count] : m.invocations) {
      invs.push_back(name + "×" + std::to_string(count));
    }
    std::sort(invs.begin(), invs.end());
    std::printf("%-20s %14.6g %14.6g %7.2fx  %s\n", m.algorithm.c_str(),
                m.charged_time, m.est_cost, m.charged_time / best,
                common::Join(invs, " ").c_str());
  }
}

}  // namespace ppp::bench

// Table 1: summary of algorithms — which query classes each algorithm
// optimizes correctly. The paper states this as analysis; we regenerate it
// empirically: an algorithm "works for" a query when its measured charged
// time is within 10% of the best algorithm's.

#include <cstdio>
#include <map>

#include "bench/bench_util.h"

int main() {
  using namespace ppp;
  const int64_t scale = bench::BenchScale(300);
  auto db = bench::MakeBenchDatabase(scale);
  workload::BenchmarkConfig config;
  config.scale = scale;

  bench::PrintHeader("Table 1 — Summary of Algorithms (scale " +
                     std::to_string(scale) + ")");

  const char* query_ids[] = {"Q1", "Q2", "Q3", "Q4", "Q5"};
  // Q3's phenomenon requires caching off (see Fig. 5 bench).
  std::map<std::string, std::map<std::string, double>> measured;
  std::map<std::string, double> best;
  std::vector<workload::Measurement> rows;
  for (const char* id : query_ids) {
    cost::CostParams params;
    if (std::string(id) == "Q3") params.predicate_caching = false;
    for (const optimizer::Algorithm algorithm : bench::kAllAlgorithms) {
      workload::Measurement m =
          bench::RunQuery(db.get(), config, id, algorithm, params);
      measured[m.algorithm][id] = m.charged_time;
      auto it = best.find(id);
      if (it == best.end() || m.charged_time < it->second) {
        best[id] = m.charged_time;
      }
      m.algorithm = std::string(id) + "/" + m.algorithm;
      rows.push_back(std::move(m));
    }
  }

  std::printf("'+' = within 10%% of the best measured plan\n\n");
  std::printf("%-20s", "algorithm");
  for (const char* id : query_ids) std::printf(" %4s", id);
  std::printf("   comments (paper's Table 1)\n");

  const std::map<std::string, std::string> comments = {
      {"PushDown", "queries without expensive predicates / single table"},
      {"PullUp", "free or very expensive selections; cheap primary joins"},
      {"PullRank", "at most one join"},
      {"PredicateMigration", "widely effective; enlarges plan space"},
      {"LDL", "optimal plan has no costly predicate over an inner"},
      {"LDL-Bushy", "the bushy-tree fix sketched in §3.1"},
      {"Exhaustive", "all queries; prohibitive complexity"},
  };
  for (const optimizer::Algorithm algorithm : bench::kAllAlgorithms) {
    const std::string name = optimizer::AlgorithmName(algorithm);
    std::printf("%-20s", name.c_str());
    for (const char* id : query_ids) {
      const bool ok = measured[name][id] <= best[id] * 1.10;
      std::printf(" %4s", ok ? "+" : "-");
    }
    auto it = comments.find(name);
    std::printf("   %s\n",
                it != comments.end() ? it->second.c_str() : "");
  }
  bench::MaybeWriteBenchJson("table1_summary", rows);
  return 0;
}

// Ablation A2 (§5.1): predicate caching. Caching changes both execution
// (repeated bindings are free) and optimization (join selectivities are
// computed on values and clamped at 1). The paper claims caching makes
// over-eager pullup safe; Q3 is the query where that matters most.

#include <cstdio>

#include "bench/bench_util.h"

int main() {
  using namespace ppp;
  const int64_t scale = bench::BenchScale();
  auto db = bench::MakeBenchDatabase(scale);
  workload::BenchmarkConfig config;
  config.scale = scale;

  bench::PrintHeader("Ablation A2 — predicate caching on/off (scale " +
                     std::to_string(scale) + ")");

  cost::CostParams cache_on;
  cost::CostParams cache_off;
  cache_off.predicate_caching = false;

  std::vector<workload::Measurement> rows;
  for (const char* id : {"Q1", "Q2", "Q3"}) {
    std::printf("\n%s:\n", id);
    std::vector<workload::Measurement> bars;
    for (const optimizer::Algorithm algorithm :
         {optimizer::Algorithm::kPushDown, optimizer::Algorithm::kPullUp,
          optimizer::Algorithm::kMigration}) {
      workload::Measurement on =
          bench::RunQuery(db.get(), config, id, algorithm, cache_on);
      on.algorithm += "/cache";
      bars.push_back(std::move(on));
      workload::Measurement off =
          bench::RunQuery(db.get(), config, id, algorithm, cache_off);
      off.algorithm += "/nocache";
      bars.push_back(std::move(off));
    }
    bench::PrintFigure("", bars);
    for (workload::Measurement& m : bars) {
      m.algorithm = std::string(id) + "/" + m.algorithm;
      rows.push_back(std::move(m));
    }
  }
  std::printf("\npaper: 'join selectivities greater than 1 ... can be "
              "avoided by using function caching' (§4.2); under caching a "
              "join 'cannot produce more than 100%% of the values from "
              "each input' (§5.1).\n");
  bench::MaybeWriteBenchJson("ablation_caching", rows);
  return 0;
}

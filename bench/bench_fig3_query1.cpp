// Figure 3: Query 1 — a costly selection on t10 under a join that filters
// t10 (join selectivity over t10 < 1). PushDown evaluates costly100 on
// every t10 tuple; every pullup-capable algorithm waits until after the
// join. Expected shape: PushDown several times worse, everyone else tied.

#include <cstdio>

#include "bench/bench_util.h"

int main() {
  using namespace ppp;
  const int64_t scale = bench::BenchScale();
  auto db = bench::MakeBenchDatabase(scale);
  workload::BenchmarkConfig config;
  config.scale = scale;

  bench::PrintHeader("Figure 3 — Query 1 (scale " + std::to_string(scale) +
                     ")");
  const auto queries = workload::BenchmarkQueries(config);
  std::printf("%s\n%s\n\n", queries[0].sql.c_str(),
              queries[0].description.c_str());

  const bool tracing = bench::TraceEnabled();
  std::vector<workload::Measurement> bars;
  for (const optimizer::Algorithm algorithm : bench::kAllAlgorithms) {
    obs::OptTrace trace;
    bars.push_back(bench::RunQuery(db.get(), config, "Q1", algorithm, {},
                                   tracing ? &trace : nullptr));
    if (tracing && !trace.empty()) {
      std::printf("--- optimizer trace: %s ---\n%s",
                  bars.back().algorithm.c_str(), trace.ToText().c_str());
    }
  }
  bench::PrintFigure("relative running times (paper: PushDown loses badly):",
                     bars);
  if (tracing) bench::PrintDpStats(bars);
  bench::MaybeWriteBenchJson("fig3_query1", bars);
  return 0;
}

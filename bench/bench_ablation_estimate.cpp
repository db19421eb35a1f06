// Ablation A4 (§5.2): the `{R}` estimation dilemma. Montage computes the
// input cardinality of a join "on the fly as needed, based on the number
// of selections over R at the time" — potentially under-estimating {R}
// (some selections may later be pulled up), which under-estimates join
// ranks and biases toward over-eager pullup. The alternative (assume
// expensive selections pass everything) biases toward under-eager pullup.
// The paper deliberately chooses the over-eager direction.

#include <cstdio>

#include "bench/bench_util.h"

int main() {
  using namespace ppp;
  const int64_t scale = bench::BenchScale();
  auto db = bench::MakeBenchDatabase(scale);
  workload::BenchmarkConfig config;
  config.scale = scale;

  bench::PrintHeader(
      "Ablation A4 — current vs pessimistic {R} estimates (scale " +
      std::to_string(scale) + ")");

  cost::CostParams current;  // Montage behaviour.
  cost::CostParams pessimistic;
  pessimistic.current_cardinality_estimate = false;

  std::vector<workload::Measurement> rows;
  for (const char* id : {"Q1", "Q2", "Q4"}) {
    std::printf("\n%s:\n", id);
    std::vector<workload::Measurement> bars;
    for (const optimizer::Algorithm algorithm :
         {optimizer::Algorithm::kPullRank,
          optimizer::Algorithm::kMigration}) {
      workload::Measurement a =
          bench::RunQuery(db.get(), config, id, algorithm, current);
      a.algorithm += "/current";
      bars.push_back(std::move(a));
      workload::Measurement b =
          bench::RunQuery(db.get(), config, id, algorithm, pessimistic);
      b.algorithm += "/pessim";
      bars.push_back(std::move(b));
    }
    bench::PrintFigure("", bars);
    for (workload::Measurement& m : bars) {
      m.algorithm = std::string(id) + "/" + m.algorithm;
      rows.push_back(std::move(m));
    }
  }
  std::printf("\npaper: 'it was decided that estimates resulting in "
              "somewhat over-eager pullup are preferable to estimates "
              "resulting in under-eager pullup' (§5.2).\n");
  bench::MaybeWriteBenchJson("ablation_estimate", rows);
  return 0;
}

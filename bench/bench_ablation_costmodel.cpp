// Ablation A1 (§3.2): the "global" cost model of [HS93a] gives a join the
// same selectivity for both inputs; the paper found it inaccurate and
// replaced it with per-input selectivities (sel over R = s * {S}). With
// the global model, the optimizer cannot see that a key-foreign-key join
// filters one side but not the other, and makes wrong pullup calls —
// visible on Q1 (pullup is right) and Q2 (pullup is pointless).

#include <cstdio>

#include "bench/bench_util.h"

int main() {
  using namespace ppp;
  const int64_t scale = bench::BenchScale();
  auto db = bench::MakeBenchDatabase(scale);
  workload::BenchmarkConfig config;
  config.scale = scale;

  bench::PrintHeader(
      "Ablation A1 — per-input vs global join selectivities (scale " +
      std::to_string(scale) + ")");

  cost::CostParams per_input;  // Default: the Montage model.
  cost::CostParams global;
  global.per_input_selectivity = false;

  std::vector<workload::Measurement> rows;
  for (const char* id : {"Q1", "Q2"}) {
    std::printf("\n%s:\n", id);
    std::vector<workload::Measurement> bars;
    for (const optimizer::Algorithm algorithm :
         {optimizer::Algorithm::kPullRank,
          optimizer::Algorithm::kMigration}) {
      workload::Measurement a =
          bench::RunQuery(db.get(), config, id, algorithm, per_input);
      a.algorithm += "/per-input";
      bars.push_back(std::move(a));
      workload::Measurement b =
          bench::RunQuery(db.get(), config, id, algorithm, global);
      b.algorithm += "/global";
      bars.push_back(std::move(b));
    }
    bench::PrintFigure("", bars);
    for (workload::Measurement& m : bars) {
      m.algorithm = std::string(id) + "/" + m.algorithm;
      rows.push_back(std::move(m));
    }
  }
  std::printf("\npaper: the global model 'proved to be inaccurate at "
              "modelling query plans in practice, and was discarded in "
              "Montage'.\n");
  bench::MaybeWriteBenchJson("ablation_costmodel", rows);
  return 0;
}

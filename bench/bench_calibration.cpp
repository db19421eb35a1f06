// Feedback calibration closing the loop on mis-declared predicates. The
// paper's placement is only as good as the catalog's cost/selectivity
// declarations (§5.1 notes estimates "may be far off"). This bench plants
// two expensive predicates whose declarations invert reality:
//
//   looks_cheap   declared cost 1, sel 0.20 (rank -0.80, ranked first)
//                 actually ~800µs/call and passes 90% of rows
//   looks_pricey  declared cost 100, sel 0.95 (rank -0.0005, ranked last)
//                 actually ~80µs/call and passes 20% of rows
//
// The static optimizer evaluates looks_cheap first — the worst possible
// order. The runtime profiler observes the real costs and distinct-value
// selectivities, EXPLAIN ANALYZE flags both ranks as DRIFT, and
// workload::Calibrate() feeds the observations back into the analyzer,
// flipping the placement. Checked: DRIFT is flagged, the placement
// changes, the invocation counters flip (the cheap-in-truth predicate
// becomes the filter that runs on every row), and the reported regret is
// positive. Before/after land in BENCH_calibration.json.

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "obs/profiler.h"
#include "parser/binder.h"

int main() {
  using namespace ppp;
  using types::Tuple;
  using types::TypeId;
  using types::Value;

  const int64_t scale = bench::BenchScale(100);
  const int64_t rows = 10 * scale;  // 1000 at default scale.

  workload::Database db;
  auto table = db.catalog().CreateTable("t", {{"k", TypeId::kInt64}});
  PPP_CHECK(table.ok()) << table.status().ToString();
  for (int64_t i = 0; i < rows; ++i) {
    PPP_CHECK((*table)->Insert(Tuple({Value(i)})).ok());
  }
  PPP_CHECK((*table)->Analyze().ok());

  // Declarations invert reality; both uncacheable so every row pays and
  // the invocation counters below are exact.
  catalog::FunctionDef cheap;
  cheap.name = "looks_cheap";
  cheap.cost_per_call = 1.0;
  cheap.selectivity = 0.2;
  cheap.return_type = TypeId::kBool;
  cheap.cacheable = false;
  cheap.impl = [](const std::vector<Value>& args) {
    std::this_thread::sleep_for(std::chrono::microseconds(800));
    return Value(args[0].AsInt64() % 10 != 0);
  };
  PPP_CHECK(db.catalog().functions().Register(std::move(cheap)).ok());

  catalog::FunctionDef pricey;
  pricey.name = "looks_pricey";
  pricey.cost_per_call = 100.0;
  pricey.selectivity = 0.95;
  pricey.return_type = TypeId::kBool;
  pricey.cacheable = false;
  pricey.impl = [](const std::vector<Value>& args) {
    std::this_thread::sleep_for(std::chrono::microseconds(80));
    return Value(args[0].AsInt64() % 5 == 0);
  };
  PPP_CHECK(db.catalog().functions().Register(std::move(pricey)).ok());

  obs::PredicateProfiler& profiler = obs::PredicateProfiler::Global();
  profiler.Reset();
  profiler.set_enabled(true);
  obs::PredicateFeedbackStore::Global().Clear();

  const std::string sql =
      "SELECT * FROM t WHERE looks_cheap(t.k) AND looks_pricey(t.k)";
  auto spec = parser::ParseAndBind(sql, db.catalog());
  PPP_CHECK(spec.ok()) << spec.status().ToString();

  serve::SessionManager manager(&db);
  const std::unique_ptr<serve::Session> session = manager.CreateSession();
  const optimizer::Algorithm algorithm = session->options().algorithm;
  cost::CostParams& cost_params = session->options().cost_params;

  bench::PrintHeader(
      "Feedback calibration (" + std::to_string(rows) +
      " rows, two predicates with inverted declarations)");

  // Run 1: static estimates. looks_cheap (rank -0.8) runs first on every
  // row; looks_pricey only on the 90% that pass. The profiler watches.
  auto before =
      workload::Measure(&db, session.get(), "EXPLAIN ANALYZE " + sql);
  PPP_CHECK(before.ok()) << before.status().ToString();
  before->algorithm = "before";
  PPP_CHECK(before->invocations.at("looks_cheap") ==
            static_cast<uint64_t>(rows))
      << "looks_cheap should be evaluated on every row before calibration";
  PPP_CHECK(before->invocations.at("looks_pricey") ==
            static_cast<uint64_t>(rows - rows / 10))
      << "looks_pricey should only see looks_cheap's survivors";
  PPP_CHECK(before->explain_text.find("DRIFT") != std::string::npos)
      << "EXPLAIN ANALYZE should flag rank drift:\n" << before->explain_text;
  std::printf("EXPLAIN ANALYZE after the uncalibrated run:\n%s\n",
              before->explain_text.c_str());

  // Calibrate: absorb the observed profile and re-place.
  auto report = workload::Calibrate(&db.catalog(), *spec, algorithm,
                                    cost_params);
  PPP_CHECK(report.ok()) << report.status().ToString();
  std::printf("%s\n", report->Summary().c_str());
  PPP_CHECK(report->functions_calibrated == 2)
      << "expected both functions profiled, got "
      << report->functions_calibrated;
  PPP_CHECK(report->placement_changed)
      << "calibration should flip the evaluation order";
  PPP_CHECK(report->regret > 0.0)
      << "static placement should show positive regret, got "
      << report->regret;
  std::printf("plan before:\n%splan after:\n%s\n",
              report->plan_before.c_str(), report->plan_after.c_str());

  // Run 2: with feedback. looks_pricey (truly cheap and selective) runs
  // first; looks_cheap only on the 10% that pass.
  cost_params.use_feedback = true;
  auto after =
      workload::Measure(&db, session.get(), "EXPLAIN ANALYZE " + sql);
  PPP_CHECK(after.ok()) << after.status().ToString();
  after->algorithm = "after";
  PPP_CHECK(after->invocations.at("looks_pricey") ==
            static_cast<uint64_t>(rows))
      << "looks_pricey should run first after calibration";
  PPP_CHECK(after->invocations.at("looks_cheap") ==
            static_cast<uint64_t>(rows / 5))
      << "looks_cheap should only see looks_pricey's survivors";
  PPP_CHECK(after->output_rows == static_cast<uint64_t>(rows / 10) &&
            after->output_rows == before->output_rows)
      << "calibration must not change the result";

  std::printf("%-8s %12s %14s %14s %12s\n", "config", "wall (s)",
              "looks_cheap", "looks_pricey", "rows");
  for (const workload::Measurement* m : {&*before, &*after}) {
    std::printf("%-8s %12.3f %14llu %14llu %12llu\n", m->algorithm.c_str(),
                m->wall_seconds,
                static_cast<unsigned long long>(
                    m->invocations.at("looks_cheap")),
                static_cast<unsigned long long>(
                    m->invocations.at("looks_pricey")),
                static_cast<unsigned long long>(m->output_rows));
  }
  std::printf("\ncalibration cut wall time %.2fx; placement regret %.4g "
              "I/Os per run.\n",
              before->wall_seconds / after->wall_seconds, report->regret);

  bench::MaybeWriteBenchJson("calibration", {*before, *after});
  return 0;
}

// Parallel expensive-predicate evaluation. The paper prices an expensive
// function in random-I/O units (§2) precisely because its cost is
// dominated by waiting — disk seeks, nested retrievals, remote lookups.
// Waiting overlaps: N workers can have N evaluations in flight at once,
// so wall-clock drops while the bill (invocations × declared cost) is
// unchanged. This bench models that with a predicate that sleeps ~200µs
// per call (an I/O-latency stand-in, honest even on a single core) and
// sweeps the worker count.
//
// Invariants checked: the result multiset and the invocation counters are
// identical at every worker count — parallelism is a pure latency
// optimization, never a cost change.

#include <chrono>
#include <cstdio>
#include <map>
#include <thread>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "exec/executor.h"
#include "expr/predicate.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

int main() {
  using namespace ppp;
  using types::Tuple;
  using types::TypeId;
  using types::Value;

  const int64_t scale = bench::BenchScale(200);
  const int64_t rows = 40 * scale;  // 8000 at default scale: ~1.6s serial.

  storage::DiskManager disk;
  storage::BufferPool pool(&disk, 256);
  catalog::Catalog catalog(&pool);
  auto table = catalog.CreateTable("t", {{"k", TypeId::kInt64}});
  PPP_CHECK(table.ok()) << table.status().ToString();
  for (int64_t i = 0; i < rows; ++i) {
    PPP_CHECK((*table)->Insert(Tuple({Value(i)})).ok());
  }
  PPP_CHECK((*table)->Analyze().ok());

  // The expensive predicate: ~200µs of pure latency per call, the shape of
  // a per-tuple remote lookup. Declared cost 25 random I/Os; not cacheable
  // (every input is distinct anyway), so every tuple pays the wait.
  catalog::FunctionDef def;
  def.name = "remote_check";
  def.cost_per_call = 25;
  def.selectivity = 0.5;
  def.return_type = TypeId::kBool;
  def.cacheable = false;
  def.impl = [](const std::vector<Value>& args) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    return Value(args[0].AsInt64() % 2 == 0);
  };
  PPP_CHECK(catalog.functions().Register(std::move(def)).ok());

  expr::TableBinding binding = {{"t", *catalog.GetTable("t")}};
  expr::PredicateAnalyzer analyzer(&catalog, binding);
  auto info = analyzer.Analyze(expr::Call("remote_check", {expr::Col("t", "k")}));
  PPP_CHECK(info.ok()) << info.status().ToString();

  bench::PrintHeader(
      "Parallel expensive-predicate evaluation (" + std::to_string(rows) +
      " rows × ~200µs latency each)");
  std::printf("%-12s %12s %10s %14s %12s\n", "config", "wall (s)", "speedup",
              "invocations", "charged");

  std::vector<workload::Measurement> bars;
  std::vector<std::string> reference_rows;
  std::map<std::string, uint64_t> reference_invocations;
  double serial_wall = 0.0;
  double wall_at_4 = 0.0;

  for (const int workers : {1, 2, 4, 8}) {
    exec::ExecContext ctx;
    ctx.catalog = &catalog;
    ctx.binding = binding;
    ctx.cost_params.parallel_workers = workers;
    plan::PlanPtr plan =
        plan::MakeFilter(plan::MakeSeqScan("t", "t"), *info);
    exec::ExecStats stats;
    const auto started = std::chrono::steady_clock::now();
    auto result = exec::ExecutePlan(*plan, &ctx, &stats);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      started)
            .count();
    PPP_CHECK(result.ok()) << result.status().ToString();

    const std::vector<std::string> canonical =
        workload::CanonicalResults(*result);
    const std::map<std::string, uint64_t> invocations(
        stats.invocations.begin(), stats.invocations.end());
    if (workers == 1) {
      reference_rows = canonical;
      reference_invocations = invocations;
      serial_wall = wall;
    } else {
      PPP_CHECK(canonical == reference_rows)
          << "result multiset changed at workers=" << workers;
      PPP_CHECK(invocations == reference_invocations)
          << "invocation counters changed at workers=" << workers;
    }
    if (workers == 4) wall_at_4 = wall;

    workload::Measurement m;
    m.algorithm = "workers=" + std::to_string(workers);
    m.output_rows = stats.output_rows;
    m.invocations = stats.invocations;
    m.io = stats.io;
    m.wall_seconds = wall;
    m.charged_time = workload::ChargedTime(stats, catalog.functions(), {},
                                           &m.charged_io, &m.charged_udf);
    std::printf("%-12s %12.3f %9.2fx %14llu %12.6g\n", m.algorithm.c_str(),
                wall, serial_wall / wall,
                static_cast<unsigned long long>(
                    m.invocations.at("remote_check")),
                m.charged_time);
    bars.push_back(std::move(m));
  }

  const double speedup = serial_wall / wall_at_4;
  std::printf("\nspeedup at 4 workers: %.2fx (%s); counters and results "
              "identical at every worker count.\n",
              speedup, speedup >= 2.0 ? "ok, >= 2x" : "BELOW 2x target");
  bench::MaybeWriteBenchJson("parallel", bars);
  return speedup >= 2.0 ? 0 : 1;
}

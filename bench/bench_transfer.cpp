// Bloom-filter predicate transfer on a two-join query. The expensive
// predicate sits on the probe side of two selective hash joins; without
// transfer it pays its latency for every r tuple, including the ~7/8 that
// the joins discard anyway. With transfer each join's build side publishes
// a Bloom filter that the r scan probes batch-at-a-time *before* the
// predicate runs, so doomed tuples never reach the UDF.
//
// Invariants checked: identical result multisets in every configuration
// ({transfer off, on} × {1, 4} workers), and a ≥2x UDF invocation
// reduction plus lower wall time with transfer on.

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

namespace {

/// Sums transfer counters over every scan in the executed operator tree.
void CollectTransferStats(const ppp::exec::Operator* op, uint64_t* probed,
                          uint64_t* passed) {
  const ppp::exec::OperatorStats& stats = op->stats();
  if (stats.has_transfer) {
    *probed += stats.transfer_probed;
    *passed += stats.transfer_passed;
  }
  for (const ppp::exec::Operator* child : op->Children()) {
    CollectTransferStats(child, probed, passed);
  }
}

}  // namespace

int main() {
  using namespace ppp;
  using types::Tuple;
  using types::TypeId;
  using types::Value;

  const int64_t scale = bench::BenchScale(200);
  const int64_t r_rows = 20 * scale;      // 4000 at default scale.
  const int64_t s_rows = r_rows / 8;      // Selective build side: 1/8 keys.
  const int64_t t_rows = r_rows / 2;      // Second join: 1/2 keys.

  storage::DiskManager disk;
  storage::BufferPool pool(&disk, 256);
  catalog::Catalog catalog(&pool);
  // Build-side keys are strided across r's key space (every 8th / every
  // 2nd key) rather than a dense prefix: r's heap returns keys in
  // insertion order, and a prefix-clustered build side would make the
  // first probed batch look 100%-passing, tripping the kill switch on a
  // filter that is actually selective.
  const auto load = [&](const std::string& name, int64_t rows,
                        int64_t stride) {
    auto table = catalog.CreateTable(name, {{"key", TypeId::kInt64}});
    PPP_CHECK(table.ok()) << table.status().ToString();
    for (int64_t i = 0; i < rows; ++i) {
      PPP_CHECK((*table)->Insert(Tuple({Value(i * stride)})).ok());
    }
    PPP_CHECK((*table)->Analyze().ok());
  };
  load("r", r_rows, 1);
  load("s", s_rows, 8);
  load("t", t_rows, 2);

  // ~150µs of pure latency per call (a remote lookup stand-in); not
  // cacheable, so every tuple that reaches it pays the wait.
  catalog::FunctionDef def;
  def.name = "remote_check";
  def.cost_per_call = 25;
  def.selectivity = 0.5;
  def.return_type = TypeId::kBool;
  def.cacheable = false;
  def.impl = [](const std::vector<Value>& args) {
    std::this_thread::sleep_for(std::chrono::microseconds(150));
    return Value(args[0].AsInt64() % 2 == 0);
  };
  PPP_CHECK(catalog.functions().Register(std::move(def)).ok());

  expr::TableBinding binding = {{"r", *catalog.GetTable("r")},
                                {"s", *catalog.GetTable("s")},
                                {"t", *catalog.GetTable("t")}};
  expr::PredicateAnalyzer analyzer(&catalog, binding);
  const auto analyze = [&](const expr::ExprPtr& e) {
    auto info = analyzer.Analyze(e);
    PPP_CHECK(info.ok()) << info.status().ToString();
    return *info;
  };

  // HashJoin(HashJoin(Filter(remote_check(r)) ⋈ s) ⋈ t): both joins sit
  // above the expensive filter on r's stream, so both transfer their
  // build-side keys down to the r scan.
  const auto make_plan = [&] {
    return plan::MakeJoin(
        plan::JoinMethod::kHash,
        plan::MakeJoin(
            plan::JoinMethod::kHash,
            plan::MakeFilter(plan::MakeSeqScan("r", "r"),
                             analyze(expr::Call("remote_check",
                                                {expr::Col("r", "key")}))),
            plan::MakeSeqScan("s", "s"),
            analyze(expr::Eq(expr::Col("r", "key"), expr::Col("s", "key")))),
        plan::MakeSeqScan("t", "t"),
        analyze(expr::Eq(expr::Col("r", "key"), expr::Col("t", "key"))));
  };

  bench::PrintHeader(
      "Bloom-filter predicate transfer, 2-join query (" +
      std::to_string(r_rows) + " r rows × ~150µs UDF latency)");
  std::printf("%-10s %12s %14s %12s %12s %10s\n", "config", "wall (s)",
              "invocations", "probed", "pruned", "rows");

  std::vector<workload::Measurement> bars;
  std::vector<std::string> reference_rows;
  std::map<bool, std::map<size_t, uint64_t>> invocations_by;
  std::map<bool, std::map<size_t, double>> wall_by;

  for (const bool transfer : {false, true}) {
    for (const size_t workers : {size_t{1}, size_t{4}}) {
      exec::ExecContext ctx;
      ctx.catalog = &catalog;
      ctx.binding = binding;
      ctx.cost_params.predicate_transfer = transfer;
      ctx.cost_params.parallel_workers = static_cast<int>(workers);
      plan::PlanPtr plan = make_plan();
      exec::ExecStats stats;
      std::unique_ptr<exec::Operator> root;
      const auto started = std::chrono::steady_clock::now();
      auto result = exec::ExecutePlan(*plan, &ctx, &stats, nullptr, &root);
      const double wall =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        started)
              .count();
      PPP_CHECK(result.ok()) << result.status().ToString();

      const std::vector<std::string> canonical =
          workload::CanonicalResults(*result);
      if (reference_rows.empty() && !transfer && workers == 1) {
        reference_rows = canonical;
      } else {
        PPP_CHECK(canonical == reference_rows)
            << "results changed at transfer=" << transfer
            << " workers=" << workers;
      }
      const uint64_t calls = stats.invocations.at("remote_check");
      invocations_by[transfer][workers] = calls;
      wall_by[transfer][workers] = wall;

      uint64_t probed = 0;
      uint64_t passed = 0;
      CollectTransferStats(root.get(), &probed, &passed);

      const std::string config = std::string(transfer ? "on" : "off") +
                                 "-w" + std::to_string(workers);
      std::printf("%-10s %12.3f %14llu %12llu %12llu %10llu\n",
                  config.c_str(), wall,
                  static_cast<unsigned long long>(calls),
                  static_cast<unsigned long long>(probed),
                  static_cast<unsigned long long>(probed - passed),
                  static_cast<unsigned long long>(stats.output_rows));

      workload::Measurement m;
      m.algorithm = config;
      m.output_rows = stats.output_rows;
      m.invocations = stats.invocations;
      m.io = stats.io;
      m.wall_seconds = wall;
      m.charged_time = workload::ChargedTime(stats, catalog.functions(), {},
                                             &m.charged_io, &m.charged_udf);
      bars.push_back(std::move(m));
    }
  }

  // Worker count must never change the bill at a fixed transfer setting.
  PPP_CHECK(invocations_by[false][1] == invocations_by[false][4])
      << "transfer-off invocations changed with workers";
  PPP_CHECK(invocations_by[true][1] == invocations_by[true][4])
      << "transfer-on invocations changed with workers";

  const double reduction =
      static_cast<double>(invocations_by[false][1]) /
      static_cast<double>(std::max<uint64_t>(1, invocations_by[true][1]));
  const bool faster = wall_by[true][1] < wall_by[false][1];
  std::printf("\nUDF invocation reduction with transfer on: %.2fx (%s); "
              "wall time %s; results identical in all configurations.\n",
              reduction, reduction >= 2.0 ? "ok, >= 2x" : "BELOW 2x target",
              faster ? "lower with transfer on" : "NOT lower with transfer on");
  bench::MaybeWriteBenchJson("transfer", bars);
  return reduction >= 2.0 && faster ? 0 : 1;
}

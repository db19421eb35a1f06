// Predicate-transfer correctness and effectiveness: a hash join's
// build-side Bloom filter pre-filters the probe-side scan, starving
// expensive predicates of doomed tuples. Transfer must never change query
// results — at any worker count — and must cut UDF invocations roughly in
// proportion to the join selectivity. The kill switch must disable a
// filter that prunes nothing, again without changing results.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cost/cost_model.h"
#include "exec/executor.h"
#include "exec/scan_ops.h"
#include "expr/predicate.h"
#include "obs/profiler.h"
#include "optimizer/optimizer.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "workload/database.h"
#include "workload/measurement.h"
#include "workload/queries.h"
#include "workload/schema_gen.h"

namespace ppp {
namespace {

using exec::ExecParams;
using exec::ExecStats;
using expr::Call;
using expr::Col;
using expr::Eq;
using optimizer::Algorithm;
using types::Tuple;
using types::TypeId;
using types::Value;

/// Handcrafted two-table plans: r (200 rows, unique key) hash-joined with a
/// selective s (25 keys, all present in r), with an expensive predicate on
/// the probe side between scan and join.
class TransferExecTest : public ::testing::Test {
 protected:
  TransferExecTest() : pool_(&disk_, 64), catalog_(&pool_) {
    MakeTable("r", 200);
    MakeTable("s", 25);     // Selective build side: 25 of r's 200 keys.
    MakeTable("big", 200);  // Non-selective build side: every r key.
    EXPECT_TRUE(
        catalog_.functions().RegisterCostlyPredicate("costly", 100, 0.5)
            .ok());
    binding_ = {{"r", *catalog_.GetTable("r")},
                {"s", *catalog_.GetTable("s")},
                {"big", *catalog_.GetTable("big")}};
    analyzer_ = std::make_unique<expr::PredicateAnalyzer>(&catalog_, binding_);
  }

  void MakeTable(const std::string& name, int64_t rows) {
    auto table = catalog_.CreateTable(
        name, {{"key", TypeId::kInt64}, {"grp", TypeId::kInt64}});
    ASSERT_TRUE(table.ok());
    for (int64_t i = 0; i < rows; ++i) {
      ASSERT_TRUE((*table)->Insert(Tuple({Value(i), Value(i % 10)})).ok());
    }
    ASSERT_TRUE((*table)->Analyze().ok());
  }

  expr::PredicateInfo Analyze(const expr::ExprPtr& e) {
    auto info = analyzer_->Analyze(e);
    EXPECT_TRUE(info.ok()) << info.status();
    return *info;
  }

  /// HashJoin(Filter(costly(r.key)) over SeqScan(r), SeqScan(build_side))
  /// on r.key = build.key — the transfer target shape: expensive predicate
  /// on the probe side below the join.
  plan::PlanPtr ProbeSideUdfPlan(const std::string& build_side) {
    return plan::MakeJoin(
        plan::JoinMethod::kHash,
        plan::MakeFilter(plan::MakeSeqScan("r", "r"),
                         Analyze(Call("costly", {Col("r", "key")}))),
        plan::MakeSeqScan(build_side, build_side),
        Analyze(Eq(Col("r", "key"), Col(build_side, "key"))));
  }

  std::vector<Tuple> Run(const plan::PlanNode& plan,
                         const cost::CostParams& knobs, ExecStats* stats,
                         std::unique_ptr<exec::Operator>* root = nullptr,
                         const ExecParams& params = {}) {
    exec::ExecContext ctx;
    ctx.catalog = &catalog_;
    ctx.binding = binding_;
    ctx.params = params;
    ctx.cost_params = knobs;
    auto rows = exec::ExecutePlan(plan, &ctx, stats, nullptr, root);
    EXPECT_TRUE(rows.ok()) << rows.status();
    return std::move(rows).value();
  }

  storage::DiskManager disk_;
  storage::BufferPool pool_;
  catalog::Catalog catalog_;
  expr::TableBinding binding_;
  std::unique_ptr<expr::PredicateAnalyzer> analyzer_;
};

std::vector<std::string> Canon(const std::vector<Tuple>& rows) {
  std::vector<std::string> out;
  for (const Tuple& t : rows) out.push_back(t.Serialize());
  std::sort(out.begin(), out.end());
  return out;
}

TEST_F(TransferExecTest, StarvesProbeSideUdfOfDoomedTuples) {
  plan::PlanPtr plan = ProbeSideUdfPlan("s");

  cost::CostParams off;
  off.predicate_caching = false;
  ExecStats off_stats;
  const std::vector<Tuple> off_rows = Run(*plan, off, &off_stats);
  EXPECT_EQ(off_stats.invocations.at("costly"), 200u);

  cost::CostParams on = off;
  on.predicate_transfer = true;
  ExecStats on_stats;
  std::unique_ptr<exec::Operator> root;
  const std::vector<Tuple> on_rows = Run(*plan, on, &on_stats, &root);

  // Identical results; UDF invocations cut from 200 toward the 25
  // join-surviving keys (filter FPs may add a few).
  EXPECT_EQ(Canon(on_rows), Canon(off_rows));
  EXPECT_LE(on_stats.invocations.at("costly"), 60u);
  EXPECT_GE(on_stats.invocations.at("costly"), 12u);

  // The probe-side scan reports transfer counters for EXPLAIN ANALYZE.
  ASSERT_NE(root, nullptr);
  const exec::Operator* scan = root->Children()[0]->Children()[0];
  const exec::OperatorStats& scan_stats = scan->stats();
  EXPECT_TRUE(scan_stats.has_transfer);
  EXPECT_EQ(scan_stats.transfer_probed, 200u);
  EXPECT_EQ(scan_stats.transfer_passed,
            on_stats.invocations.at("costly"));
  EXPECT_FALSE(scan_stats.transfer_killed);
}

TEST_F(TransferExecTest, ResultsIdenticalAcrossWorkers) {
  plan::PlanPtr plan = ProbeSideUdfPlan("s");
  cost::CostParams reference_params;
  ExecStats reference_stats;
  const auto reference = Canon(Run(*plan, reference_params, &reference_stats));
  for (const int workers : {1, 4}) {
    cost::CostParams params;
    params.predicate_transfer = true;
    params.parallel_workers = workers;
    ExecStats stats;
    EXPECT_EQ(Canon(Run(*plan, params, &stats)), reference)
        << "workers=" << workers;
  }
  // Counters agree exactly between worker counts (pruning and caching are
  // both deterministic).
  cost::CostParams w1;
  w1.predicate_transfer = true;
  cost::CostParams w4 = w1;
  w4.parallel_workers = 4;
  ExecStats s1;
  ExecStats s4;
  Run(*plan, w1, &s1);
  Run(*plan, w4, &s4);
  EXPECT_EQ(s1.invocations, s4.invocations);
}

TEST_F(TransferExecTest, KillSwitchDisablesUselessFilter) {
  // Build side `big` contains every r key: the filter passes everything,
  // so after transfer_min_probes rows the kill switch must fire.
  plan::PlanPtr plan = ProbeSideUdfPlan("big");

  cost::CostParams off;
  ExecStats off_stats;
  const auto reference = Canon(Run(*plan, off, &off_stats));

  cost::CostParams on;
  on.predicate_transfer = true;
  ExecParams params;
  params.transfer_min_probes = 50;
  ExecStats on_stats;
  std::unique_ptr<exec::Operator> root;
  const auto rows = Canon(Run(*plan, on, &on_stats, &root, params));
  EXPECT_EQ(rows, reference);
  // Nothing was prunable, so the UDF bill is unchanged.
  EXPECT_EQ(on_stats.invocations.at("costly"),
            off_stats.invocations.at("costly"));

  const exec::Operator* scan = root->Children()[0]->Children()[0];
  EXPECT_TRUE(scan->stats().has_transfer);
  EXPECT_TRUE(scan->stats().transfer_killed);
  // Probing stopped at (or shortly after) the kill.
  EXPECT_LT(scan->stats().transfer_probed, 200u);
}

TEST_F(TransferExecTest, BatchProbeKeepsSurvivingTuplesIntact) {
  // A published filter over keys 0..24 of r: the first 25 rows survive in
  // place, the rest are (mostly) pruned and the survivors compacted. Every
  // row handed out must still carry both columns.
  for (const size_t batch_size : {size_t{1}, size_t{7}, size_t{1024}}) {
    auto transfer = std::make_shared<exec::BloomTransfer>("r", "key", "s",
                                                          "key");
    auto filter = std::make_unique<exec::BloomFilter>(25);
    for (int64_t key = 0; key < 25; ++key) {
      filter->InsertHash(static_cast<uint64_t>(Value(key).Hash()));
    }
    transfer->Publish(std::move(filter));

    exec::SeqScanOp scan(*catalog_.GetTable("r"), "r");
    scan.AttachTransfer(transfer, /*key_index=*/0);
    ASSERT_TRUE(scan.Open().ok());
    std::vector<int64_t> keys;
    exec::TupleBatch batch;
    bool eof = false;
    while (!eof) {
      batch.clear();
      ASSERT_TRUE(scan.NextBatch(batch_size, &batch, &eof).ok());
      for (const Tuple& tuple : batch.tuples) {
        ASSERT_EQ(tuple.NumValues(), 2u) << "batch=" << batch_size;
        EXPECT_EQ(tuple.Get(1).AsInt64(), tuple.Get(0).AsInt64() % 10);
        keys.push_back(tuple.Get(0).AsInt64());
      }
    }
    ASSERT_GE(keys.size(), 25u) << "batch=" << batch_size;
    for (int64_t key = 0; key < 25; ++key) {
      EXPECT_EQ(keys[static_cast<size_t>(key)], key) << "batch=" << batch_size;
    }
    EXPECT_EQ(transfer->probed(), 200u);
    EXPECT_EQ(transfer->passed(), keys.size());
  }
}

TEST_F(TransferExecTest, TransferStatsReachProfiler) {
  obs::PredicateProfiler::Global().Reset();
  plan::PlanPtr plan = ProbeSideUdfPlan("s");
  cost::CostParams on;
  on.predicate_transfer = true;
  ExecStats stats;
  Run(*plan, on, &stats);
  const auto transfers = obs::PredicateProfiler::Global().TransferSnapshot();
  ASSERT_EQ(transfers.size(), 1u);
  EXPECT_EQ(transfers[0].site, "r.key <- s.key");
  EXPECT_EQ(transfers[0].queries, 1u);
  EXPECT_EQ(transfers[0].probed, 200u);
  EXPECT_LT(transfers[0].PassRate(), 0.5);
  obs::PredicateProfiler::Global().Reset();
}

TEST_F(TransferExecTest, ExpensiveJoinPrimaryNeverTransfers) {
  // A hash join requires a cheap simple equi-join, so this plan fails to
  // execute either way; the gate in BuildExecutor must simply not create a
  // transfer (covered by the is_expensive() condition) — here we assert
  // the cheap-equijoin gate via the cost model's TransferApplies.
  cost::CostParams params;
  params.predicate_transfer = true;
  cost::CostModel model(&catalog_, binding_, params);
  plan::PlanPtr hash = ProbeSideUdfPlan("s");
  EXPECT_TRUE(model.TransferApplies(*hash));
  plan::PlanPtr merge = plan::MakeJoin(
      plan::JoinMethod::kMerge, plan::MakeSeqScan("r", "r"),
      plan::MakeSeqScan("s", "s"),
      Analyze(Eq(Col("r", "key"), Col("s", "key"))));
  EXPECT_FALSE(model.TransferApplies(*merge));
  params.predicate_transfer = false;
  cost::CostModel off(&catalog_, binding_, params);
  EXPECT_FALSE(off.TransferApplies(*hash));
}

/// Benchmark queries Q1–Q5 with transfer on/off at workers 1 and 4: the
/// full optimizer+executor pipeline must return identical results, and
/// transfer may only ever lower per-function invocation counts.
class TransferBenchmarkTest : public ::testing::Test {
 protected:
  struct RunOutcome {
    std::vector<std::string> rows;
    std::map<std::string, uint64_t> invocations;
  };

  TransferBenchmarkTest() {
    config_.scale = 150;
    config_.table_numbers = {1, 3, 6, 7, 9, 10};
    EXPECT_TRUE(workload::LoadBenchmarkDatabase(&db_, config_).ok());
    EXPECT_TRUE(workload::RegisterBenchmarkFunctions(&db_).ok());
  }

  /// Optimizes `id` once with `cost_params`, executes under `knobs`.
  RunOutcome Execute(const std::string& id, const cost::CostParams& cost_params,
                     const cost::CostParams& knobs) {
    auto spec = workload::GetBenchmarkQuery(db_, config_, id);
    EXPECT_TRUE(spec.ok()) << spec.status();
    optimizer::Optimizer opt(&db_.catalog(), cost_params);
    auto result = opt.Optimize(*spec, Algorithm::kMigration);
    EXPECT_TRUE(result.ok()) << result.status();

    exec::ExecContext ctx;
    ctx.catalog = &db_.catalog();
    ctx.cost_params = knobs;
    for (const plan::TableRef& ref : spec->tables) {
      ctx.binding[ref.alias] = *db_.catalog().GetTable(ref.table_name);
    }
    ExecStats stats;
    types::RowSchema schema;
    auto rows = exec::ExecutePlan(*result->plan, &ctx, &stats, &schema);
    EXPECT_TRUE(rows.ok()) << rows.status();
    RunOutcome out;
    out.rows = workload::CanonicalResults(*rows, schema);
    out.invocations = {stats.invocations.begin(), stats.invocations.end()};
    return out;
  }

  workload::Database db_;
  workload::BenchmarkConfig config_;
};

TEST_F(TransferBenchmarkTest, TransferNeverChangesResults) {
  for (const char* id : {"Q1", "Q2", "Q3", "Q4", "Q5"}) {
    const cost::CostParams cost_off;
    const RunOutcome reference = Execute(id, cost_off, cost_off);
    EXPECT_FALSE(reference.rows.empty()) << id;

    for (const int workers : {1, 4}) {
      cost::CostParams on;
      on.predicate_transfer = true;
      on.parallel_workers = workers;
      const RunOutcome outcome = Execute(id, cost_off, on);
      EXPECT_EQ(outcome.rows, reference.rows)
          << id << " workers=" << workers;
      // Transfer can only starve UDFs, never add calls.
      for (const auto& [fn, count] : outcome.invocations) {
        auto it = reference.invocations.find(fn);
        ASSERT_NE(it, reference.invocations.end()) << id << " " << fn;
        EXPECT_LE(count, it->second) << id << " " << fn;
      }
    }
  }
}

TEST_F(TransferBenchmarkTest, TransferCountersIdenticalAcrossWorkers) {
  for (const char* id : {"Q2", "Q4"}) {
    const cost::CostParams cost_off;
    cost::CostParams w1;
    w1.predicate_transfer = true;
    cost::CostParams w4 = w1;
    w4.parallel_workers = 4;
    const RunOutcome a = Execute(id, cost_off, w1);
    const RunOutcome b = Execute(id, cost_off, w4);
    EXPECT_EQ(a.rows, b.rows) << id;
    EXPECT_EQ(a.invocations, b.invocations) << id;
  }
}

TEST_F(TransferBenchmarkTest, TransferAwareOptimizerStaysCorrect) {
  // With the cost model told about transfer (post-transfer cardinalities),
  // plans may change — results must not. The executor reads the same
  // predicate_transfer field the model does.
  for (const char* id : {"Q1", "Q2", "Q3", "Q4", "Q5"}) {
    const cost::CostParams cost_off;
    const RunOutcome reference = Execute(id, cost_off, cost_off);

    cost::CostParams cost_on;
    cost_on.predicate_transfer = true;
    EXPECT_EQ(Execute(id, cost_on, cost_on).rows, reference.rows) << id;
  }
}

}  // namespace
}  // namespace ppp

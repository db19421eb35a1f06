#include <gtest/gtest.h>

#include <set>

#include "common/random.h"
#include "exec/executor.h"
#include "exec/scan_ops.h"
#include "expr/predicate.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace ppp::exec {
namespace {

using expr::Call;
using expr::Col;
using expr::Eq;
using expr::Int;
using types::Tuple;
using types::TypeId;
using types::Value;

/// r: 200 rows (key unique, grp = key % 10), s: 500 rows (key unique,
/// grp = key % 25), with indexes on key.
class ExecTest : public ::testing::Test {
 protected:
  ExecTest() : pool_(&disk_, 64), catalog_(&pool_) {
    MakeTable("r", 200, 10);
    MakeTable("s", 500, 25);
    EXPECT_TRUE(
        catalog_.functions().RegisterCostlyPredicate("costly", 100, 0.5)
            .ok());
    binding_ = {{"r", *catalog_.GetTable("r")},
                {"s", *catalog_.GetTable("s")}};
    analyzer_ = std::make_unique<expr::PredicateAnalyzer>(&catalog_, binding_);
    ctx_.catalog = &catalog_;
    ctx_.binding = binding_;
  }

  void MakeTable(const std::string& name, int64_t rows, int64_t groups) {
    auto table = catalog_.CreateTable(
        name, {{"key", TypeId::kInt64}, {"grp", TypeId::kInt64}});
    ASSERT_TRUE(table.ok());
    for (int64_t i = 0; i < rows; ++i) {
      ASSERT_TRUE(
          (*table)->Insert(Tuple({Value(i), Value(i % groups)})).ok());
    }
    ASSERT_TRUE((*table)->CreateIndex("key").ok());
    ASSERT_TRUE((*table)->Analyze().ok());
  }

  expr::PredicateInfo Analyze(const expr::ExprPtr& e) {
    auto info = analyzer_->Analyze(e);
    EXPECT_TRUE(info.ok()) << info.status();
    return *info;
  }

  std::vector<Tuple> Run(const plan::PlanNode& plan, ExecStats* stats) {
    auto rows = ExecutePlan(plan, &ctx_, stats);
    EXPECT_TRUE(rows.ok()) << rows.status();
    return std::move(rows).value();
  }

  storage::DiskManager disk_;
  storage::BufferPool pool_;
  catalog::Catalog catalog_;
  expr::TableBinding binding_;
  std::unique_ptr<expr::PredicateAnalyzer> analyzer_;
  ExecContext ctx_;
};

TEST_F(ExecTest, SeqScanReturnsAllRows) {
  pool_.FlushAll();
  pool_.EvictAll();  // Cold start so the scan actually reads pages.
  ExecStats stats;
  const std::vector<Tuple> rows = Run(*plan::MakeSeqScan("r", "r"), &stats);
  EXPECT_EQ(rows.size(), 200u);
  EXPECT_EQ(stats.output_rows, 200u);
  EXPECT_GT(stats.io.TotalReads(), 0u);
}

TEST_F(ExecTest, IndexScanFetchesExactMatches) {
  plan::PlanPtr plan =
      plan::MakeIndexScan("s", "s", "key", Value(int64_t{123}),
                          Analyze(Eq(Col("s", "key"), Int(123))));
  ExecStats stats;
  const std::vector<Tuple> rows = Run(*plan, &stats);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].Get(0).AsInt64(), 123);
}

TEST_F(ExecTest, IndexScanMissingKeyReturnsNothing) {
  plan::PlanPtr plan =
      plan::MakeIndexScan("s", "s", "key", Value(int64_t{100000}),
                          Analyze(Eq(Col("s", "key"), Int(100000))));
  ExecStats stats;
  EXPECT_TRUE(Run(*plan, &stats).empty());
}

TEST_F(ExecTest, FilterKeepsOnlyPassing) {
  plan::PlanPtr plan = plan::MakeFilter(plan::MakeSeqScan("r", "r"),
                                        Analyze(Eq(Col("r", "grp"), Int(3))));
  ExecStats stats;
  const std::vector<Tuple> rows = Run(*plan, &stats);
  EXPECT_EQ(rows.size(), 20u);
  for (const Tuple& t : rows) EXPECT_EQ(t.Get(1).AsInt64(), 3);
}

TEST_F(ExecTest, FilterCountsUdfInvocations) {
  ctx_.cost_params.predicate_caching = false;
  plan::PlanPtr plan = plan::MakeFilter(
      plan::MakeSeqScan("r", "r"), Analyze(Call("costly", {Col("r", "key")})));
  ExecStats stats;
  Run(*plan, &stats);
  EXPECT_EQ(stats.invocations.at("costly"), 200u);
}

TEST_F(ExecTest, PredicateCacheDeduplicatesInvocations) {
  ctx_.cost_params.predicate_caching = true;
  // Only 10 distinct grp values: at most 10 invocations.
  plan::PlanPtr plan = plan::MakeFilter(
      plan::MakeSeqScan("r", "r"), Analyze(Call("costly", {Col("r", "grp")})));
  ExecStats stats;
  Run(*plan, &stats);
  EXPECT_EQ(stats.invocations.at("costly"), 10u);
}

TEST_F(ExecTest, CacheDisabledEvaluatesEveryTuple) {
  ctx_.cost_params.predicate_caching = false;
  plan::PlanPtr plan = plan::MakeFilter(
      plan::MakeSeqScan("r", "r"), Analyze(Call("costly", {Col("r", "grp")})));
  ExecStats stats;
  Run(*plan, &stats);
  EXPECT_EQ(stats.invocations.at("costly"), 200u);
}

plan::PlanPtr TwoTableJoin(plan::JoinMethod method,
                           expr::PredicateInfo pred) {
  return plan::MakeJoin(method, plan::MakeSeqScan("r", "r"),
                        plan::MakeSeqScan("s", "s"), std::move(pred));
}

TEST_F(ExecTest, AllJoinMethodsAgree) {
  const expr::PredicateInfo pred = Analyze(Eq(Col("r", "key"), Col("s", "key")));
  std::vector<std::vector<std::string>> results;
  for (const plan::JoinMethod method :
       {plan::JoinMethod::kNestLoop, plan::JoinMethod::kIndexNestLoop,
        plan::JoinMethod::kMerge, plan::JoinMethod::kHash}) {
    plan::PlanPtr plan = TwoTableJoin(method, pred);
    ExecStats stats;
    std::vector<Tuple> rows = Run(*plan, &stats);
    EXPECT_EQ(rows.size(), 200u) << plan::JoinMethodName(method);
    std::vector<std::string> canon;
    for (const Tuple& t : rows) canon.push_back(t.Serialize());
    std::sort(canon.begin(), canon.end());
    results.push_back(std::move(canon));
  }
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_EQ(results[0], results[i]) << "method " << i;
  }
}

TEST_F(ExecTest, JoinOnDuplicatedKeysProducesAllPairs) {
  // r.grp (10 groups of 20) x s.grp (25 groups of 20, only 10 overlap).
  const expr::PredicateInfo pred = Analyze(Eq(Col("r", "grp"), Col("s", "grp")));
  for (const plan::JoinMethod method :
       {plan::JoinMethod::kNestLoop, plan::JoinMethod::kMerge,
        plan::JoinMethod::kHash}) {
    plan::PlanPtr plan = TwoTableJoin(method, pred);
    ExecStats stats;
    // 10 shared groups * 20 r-rows * 20 s-rows.
    EXPECT_EQ(Run(*plan, &stats).size(), 4000u)
        << plan::JoinMethodName(method);
  }
}

TEST_F(ExecTest, CrossProductViaNestLoopWithoutPredicate) {
  plan::PlanPtr plan = plan::MakeJoin(
      plan::JoinMethod::kNestLoop, plan::MakeSeqScan("r", "r"),
      plan::MakeSeqScan("s", "s"), expr::PredicateInfo{});
  ExecStats stats;
  EXPECT_EQ(Run(*plan, &stats).size(), 200u * 500u);
}

TEST_F(ExecTest, NestLoopRescansChargeIo) {
  const expr::PredicateInfo pred = Analyze(Eq(Col("r", "key"), Col("s", "key")));
  plan::PlanPtr plan = TwoTableJoin(plan::JoinMethod::kNestLoop, pred);
  ExecStats stats;
  Run(*plan, &stats);
  // Every fetch is a read or a hit. The outer scan pins each page of r
  // once; each of the 200 rescans pins each page of s once (one batch
  // covers a whole table, and a scan pins a page once per batch).
  const uint64_t r_pages = (*catalog_.GetTable("r"))->heap().NumPages();
  const uint64_t s_pages = (*catalog_.GetTable("s"))->heap().NumPages();
  EXPECT_EQ(stats.io.buffer_hits + stats.io.TotalReads(),
            r_pages + 200u * s_pages);
}

TEST_F(ExecTest, RowSeqScanPinsEachPageOncePerBatch) {
  const catalog::Table* s = *catalog_.GetTable("s");
  const uint64_t pages = s->heap().NumPages();
  ASSERT_GT(pages, 1u);
  std::vector<storage::IoStats> cold_reads;
  for (const size_t batch_size : {size_t{1}, size_t{7}, size_t{1024}}) {
    pool_.FlushAll();
    pool_.EvictAll();
    SeqScanOp scan(s, "s");
    const storage::IoStats before = storage::ThreadIo();
    std::vector<Tuple> rows;
    ASSERT_TRUE(Drain(&scan, batch_size, &rows).ok());
    EXPECT_EQ(rows.size(), 500u) << batch_size;
    const storage::IoStats io = storage::ThreadIo() - before;
    if (batch_size == 1024) {
      EXPECT_EQ(io.TotalReads() + io.buffer_hits, pages);
    }
    cold_reads.push_back(io);
  }
  // The batch size changes how often a page is re-pinned, never which
  // pages are read.
  for (const storage::IoStats& io : cold_reads) {
    EXPECT_EQ(io.sequential_reads, cold_reads[0].sequential_reads);
    EXPECT_EQ(io.random_reads, cold_reads[0].random_reads);
    EXPECT_EQ(io.TotalReads(), pages);
  }
}

TEST_F(ExecTest, IndexNestLoopProbesPerOuterTuple) {
  const expr::PredicateInfo pred = Analyze(Eq(Col("r", "key"), Col("s", "key")));
  plan::PlanPtr plan = TwoTableJoin(plan::JoinMethod::kIndexNestLoop, pred);
  ExecStats stats;
  const std::vector<Tuple> rows = Run(*plan, &stats);
  EXPECT_EQ(rows.size(), 200u);
  for (const Tuple& t : rows) {
    EXPECT_EQ(t.Get(0).AsInt64(), t.Get(2).AsInt64());  // r.key == s.key.
  }
}

TEST_F(ExecTest, MergeAndHashJoinsRequireSimpleEquiJoin) {
  expr::PredicateInfo pred =
      Analyze(Call("costly", {Col("r", "key"), Col("s", "key")}));
  plan::PlanPtr plan = TwoTableJoin(plan::JoinMethod::kHash, pred);
  auto rows = ExecutePlan(*plan, &ctx_, nullptr);
  EXPECT_FALSE(rows.ok());
}

TEST_F(ExecTest, ExpensivePrimaryJoinViaNestLoop) {
  ctx_.cost_params.predicate_caching = false;
  expr::PredicateInfo pred =
      Analyze(Call("costly", {Col("r", "grp"), Col("s", "grp")}));
  plan::PlanPtr plan = plan::MakeJoin(
      plan::JoinMethod::kNestLoop,
      plan::MakeFilter(plan::MakeSeqScan("r", "r"),
                       Analyze(Eq(Col("r", "key"), Int(1)))),
      plan::MakeSeqScan("s", "s"), pred);
  ExecStats stats;
  Run(*plan, &stats);
  // One outer tuple × 500 inner tuples.
  EXPECT_EQ(stats.invocations.at("costly"), 500u);
}

TEST_F(ExecTest, SortOrdersByColumn) {
  plan::PlanPtr plan = plan::MakeSort(plan::MakeSeqScan("r", "r"), "r.grp");
  ExecStats stats;
  const std::vector<Tuple> rows = Run(*plan, &stats);
  ASSERT_EQ(rows.size(), 200u);
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LE(rows[i - 1].Get(1).AsInt64(), rows[i].Get(1).AsInt64());
  }
}

TEST_F(ExecTest, ProjectComputesExpressions) {
  plan::PlanPtr plan = plan::MakeProject(
      plan::MakeSeqScan("r", "r"),
      {expr::Arith(expr::ArithOp::kAdd, Col("r", "key"), Int(1000)),
       Col("r", "grp")},
      {"shifted", "grp"});
  ExecStats stats;
  const std::vector<Tuple> rows = Run(*plan, &stats);
  ASSERT_EQ(rows.size(), 200u);
  EXPECT_EQ(rows[0].NumValues(), 2u);
  EXPECT_GE(rows[0].Get(0).AsInt64(), 1000);
}

TEST_F(ExecTest, MaterializeReplaysWithoutReexecution) {
  ctx_.cost_params.predicate_caching = false;
  // Materialized expensive filter as NLJ inner: the filter runs once.
  plan::PlanPtr inner = plan::MakeMaterialize(plan::MakeFilter(
      plan::MakeSeqScan("s", "s"), Analyze(Call("costly", {Col("s", "key")}))));
  plan::PlanPtr plan = plan::MakeJoin(
      plan::JoinMethod::kNestLoop, plan::MakeSeqScan("r", "r"),
      std::move(inner), Analyze(Eq(Col("r", "key"), Col("s", "key"))));
  ExecStats stats;
  Run(*plan, &stats);
  EXPECT_EQ(stats.invocations.at("costly"), 500u);  // Not 200 x 500.
}

TEST_F(ExecTest, PipelinedNestLoopReexecutesInnerFilterButCacheAbsorbs) {
  ctx_.cost_params.predicate_caching = true;
  plan::PlanPtr inner = plan::MakeFilter(
      plan::MakeSeqScan("s", "s"), Analyze(Call("costly", {Col("s", "key")})));
  plan::PlanPtr plan = plan::MakeJoin(
      plan::JoinMethod::kNestLoop, plan::MakeSeqScan("r", "r"),
      std::move(inner), Analyze(Eq(Col("r", "key"), Col("s", "key"))));
  ExecStats stats;
  Run(*plan, &stats);
  // 200 rescans of the filter over 500 tuples, but only 500 distinct
  // bindings: the cache absorbs the rest (paper §5.1 / footnote 4).
  EXPECT_EQ(stats.invocations.at("costly"), 500u);
}

TEST_F(ExecTest, BuildExecutorFailsOnBadPlans) {
  // INLJ with non-scan inner.
  plan::PlanPtr bad = plan::MakeJoin(
      plan::JoinMethod::kIndexNestLoop, plan::MakeSeqScan("r", "r"),
      plan::MakeFilter(plan::MakeSeqScan("s", "s"),
                       Analyze(Eq(Col("s", "grp"), Int(1)))),
      Analyze(Eq(Col("r", "key"), Col("s", "key"))));
  EXPECT_FALSE(BuildExecutor(*bad, &ctx_).ok());

  // Sort on a malformed column spec.
  plan::PlanPtr bad_sort =
      plan::MakeSort(plan::MakeSeqScan("r", "r"), "nodot");
  EXPECT_FALSE(BuildExecutor(*bad_sort, &ctx_).ok());

  // Scan of an unbound alias.
  plan::PlanPtr bad_scan = plan::MakeSeqScan("zz", "zz");
  EXPECT_FALSE(BuildExecutor(*bad_scan, &ctx_).ok());
}

TEST(TupleConcatTest, MoveConcatStealsPayloadStorage) {
  // The hash-join probe-passthrough emits its last match for an outer
  // tuple via Concat(std::move(outer), inner): the outer values must move,
  // not copy. Pin it by string payload pointer identity (well past SSO).
  Tuple left({Value(std::string(128, 'x')), Value(int64_t{1})});
  const char* payload = left.Get(0).AsString().data();
  const Tuple right({Value(int64_t{2}), Value("r")});

  const Tuple out = Tuple::Concat(std::move(left), right);
  ASSERT_EQ(out.NumValues(), 4u);
  EXPECT_EQ(out.Get(0).AsString().data(), payload);
  EXPECT_EQ(out.Get(1).AsInt64(), 1);
  EXPECT_EQ(out.Get(2).AsInt64(), 2);
  EXPECT_EQ(out.Get(3).AsString(), "r");
}

}  // namespace
}  // namespace ppp::exec

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

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

/// NestedLoopJoin probes its inner from column batches. Its output must
/// match a row-at-a-time reference — both inputs streamed as rows through
/// RowCursor, the inner re-opened per outer row, the predicate run on the
/// concatenated pair — in rows and their order, UDF invocations, cache
/// hits, entries and evictions, inner opens, and page reads and pins.
///
/// o: 9 rows (id, grp = id % 3). i: 80 rows (id, grp = id % 5,
/// d = grp / 2.0, tag = a long string per grp, pad), over several pages,
/// with an index on id. The pool holds 4 pages, so rescans evict.
class NestLoopParityTest : public ::testing::Test {
 protected:
  NestLoopParityTest() : pool_(&disk_, 4), catalog_(&pool_) {
    auto outer = catalog_.CreateTable(
        "o", {{"id", TypeId::kInt64}, {"grp", TypeId::kInt64}});
    EXPECT_TRUE(outer.ok());
    for (int64_t id = 0; id < 9; ++id) {
      EXPECT_TRUE((*outer)->Insert(Tuple({Value(id), Value(id % 3)})).ok());
    }
    EXPECT_TRUE((*outer)->Analyze().ok());
    auto inner = catalog_.CreateTable("i", {{"id", TypeId::kInt64},
                                            {"grp", TypeId::kInt64},
                                            {"d", TypeId::kDouble},
                                            {"tag", TypeId::kString},
                                            {"pad", TypeId::kString}});
    EXPECT_TRUE(inner.ok());
    for (int64_t id = 0; id < 80; ++id) {
      const int64_t grp = id % 5;
      EXPECT_TRUE(
          (*inner)
              ->Insert(Tuple({Value(id), Value(grp),
                              Value(static_cast<double>(grp) / 2.0),
                              Value("tag-" + std::to_string(grp) +
                                    std::string(30, 't')),
                              Value(std::string(100, 'p'))}))
              .ok());
    }
    EXPECT_TRUE((*inner)->CreateIndex("id").ok());
    EXPECT_TRUE((*inner)->Analyze().ok());
    EXPECT_GT((*inner)->heap().NumPages(), 2u);
    EXPECT_TRUE(
        catalog_.functions().RegisterCostlyPredicate("pair", 100, 0.5).ok());
    EXPECT_TRUE(
        catalog_.functions().RegisterCostlyPredicate("inner", 100, 0.7).ok());
    binding_ = {{"o", *catalog_.GetTable("o")},
                {"i", *catalog_.GetTable("i")}};
    analyzer_ = std::make_unique<expr::PredicateAnalyzer>(&catalog_, binding_);
  }

  expr::PredicateInfo Analyze(const expr::ExprPtr& e) {
    auto info = analyzer_->Analyze(e);
    EXPECT_TRUE(info.ok()) << info.status();
    return *info;
  }

  enum class Caching { kOff, kUnbounded, kBoundedFifo, kAdaptive };

  void Configure(Caching caching, size_t batch_size, bool vectorized,
                 ExecContext* ctx) {
    ctx->catalog = &catalog_;
    ctx->binding = binding_;
    ctx->params.batch_size = batch_size;
    ctx->params.vectorized = vectorized;
    ctx->cost_params.predicate_caching = caching != Caching::kOff;
    if (caching == Caching::kBoundedFifo) ctx->params.cache_max_entries = 6;
    if (caching == Caching::kAdaptive) {
      ctx->params.adaptive_caching = true;
      ctx->params.adaptive_probe_window = 16;
    }
  }

  /// The inner subtree of each case.
  plan::PlanPtr Inner(int kind) {
    switch (kind) {
      case 0:
        return plan::MakeSeqScan("i", "i");
      case 1:
        // A cheap conjunct, then an expensive one with its own cache.
        return plan::MakeFilter(
            plan::MakeSeqScan("i", "i"),
            Analyze(expr::And(
                expr::Cmp(expr::CompareOp::kLt, Col("i", "grp"), Int(4)),
                Call("inner", {Col("i", "id")}))));
      default:
        return plan::MakeIndexRangeScan(
            "i", "i", "id", 5, 64,
            Analyze(expr::And(
                expr::Cmp(expr::CompareOp::kGe, Col("i", "id"), Int(5)),
                expr::Cmp(expr::CompareOp::kLe, Col("i", "id"), Int(64)))));
    }
  }

  /// The join predicate: keyed on inputs from both sides (an int, a
  /// double and a long string) with 15 distinct bindings, or, for the
  /// adaptive cache, on the pair's unique ids so the cache disables.
  expr::PredicateInfo Primary(Caching caching) {
    if (caching == Caching::kAdaptive) {
      return Analyze(Call("pair", {Col("o", "id"), Col("i", "id")}));
    }
    return Analyze(
        Call("pair", {Col("i", "tag"), Col("o", "grp"), Col("i", "d")}));
  }

  struct Outcome {
    std::vector<std::string> rows;  // Serialized, in output order.
    std::map<std::string, uint64_t> invocations;
    bool cache_enabled = false;
    uint64_t hits = 0;
    uint64_t entries = 0;
    uint64_t evictions = 0;
    uint64_t inner_opens = 0;
    storage::IoStats io;
  };

  void ColdPool() {
    pool_.FlushAll();
    pool_.EvictAll();
  }

  Outcome RunJoin(Caching caching, size_t batch_size, bool vectorized,
                  int inner_kind) {
    ExecContext ctx;
    Configure(caching, batch_size, vectorized, &ctx);
    const plan::PlanPtr plan =
        plan::MakeJoin(plan::JoinMethod::kNestLoop,
                       plan::MakeSeqScan("o", "o"), Inner(inner_kind),
                       Primary(caching));
    ColdPool();
    ExecStats stats;
    std::unique_ptr<Operator> root;
    auto rows = ExecutePlan(*plan, &ctx, &stats, nullptr, &root);
    EXPECT_TRUE(rows.ok()) << rows.status();
    Outcome out;
    if (!rows.ok()) return out;
    for (const Tuple& t : *rows) out.rows.push_back(t.Serialize());
    out.invocations.insert(stats.invocations.begin(), stats.invocations.end());
    const OperatorStats& join = root->stats();
    EXPECT_TRUE(join.has_cache);
    out.cache_enabled = join.cache_enabled;
    out.hits = join.cache_hits;
    out.entries = join.cache_entries;
    out.evictions = join.cache_evictions;
    out.inner_opens = root->Children()[1]->stats().opens;
    out.io = stats.io;
    return out;
  }

  Outcome RunReference(Caching caching, size_t batch_size, int inner_kind) {
    ExecContext ctx;
    Configure(caching, batch_size, /*vectorized=*/false, &ctx);
    const plan::PlanPtr outer_plan = plan::MakeSeqScan("o", "o");
    const plan::PlanPtr inner_plan = Inner(inner_kind);
    auto outer = BuildExecutor(*outer_plan, &ctx);
    auto inner = BuildExecutor(*inner_plan, &ctx);
    EXPECT_TRUE(outer.ok() && inner.ok());
    Outcome out;
    if (!outer.ok() || !inner.ok()) return out;
    (*outer)->SetBatchSize(batch_size);
    (*inner)->SetBatchSize(batch_size);
    auto primary = CachedPredicate::Bind(
        Primary(caching),
        types::RowSchema::Concat((*outer)->schema(), (*inner)->schema()), ctx);
    EXPECT_TRUE(primary.ok()) << primary.status();
    if (!primary.ok()) return out;
    ColdPool();
    const storage::IoStats before = storage::ThreadIo();
    RowCursor outer_rows(outer->get());
    EXPECT_TRUE(outer_rows.Open().ok());
    for (;;) {
      Tuple* o = nullptr;
      EXPECT_TRUE(outer_rows.Advance(batch_size, &o).ok());
      if (o == nullptr) break;
      RowCursor inner_rows(inner->get());
      EXPECT_TRUE(inner_rows.Open().ok());
      for (;;) {
        Tuple* i = nullptr;
        EXPECT_TRUE(inner_rows.Advance(batch_size, &i).ok());
        if (i == nullptr) break;
        const Tuple pair = Tuple::Concat(*o, *i);
        if (primary->Eval(pair, &ctx.eval)) {
          out.rows.push_back(pair.Serialize());
        }
      }
    }
    out.io = storage::ThreadIo() - before;
    out.invocations.insert(ctx.eval.invocation_counts.begin(),
                           ctx.eval.invocation_counts.end());
    out.cache_enabled = primary->cache_enabled();
    out.hits = primary->cache_hits();
    out.entries = primary->cache_entries();
    out.evictions = primary->cache_evictions();
    out.inner_opens = (*inner)->stats().opens;
    return out;
  }

  storage::DiskManager disk_;
  storage::BufferPool pool_;
  catalog::Catalog catalog_;
  expr::TableBinding binding_;
  std::unique_ptr<expr::PredicateAnalyzer> analyzer_;
};

TEST_F(NestLoopParityTest, MatchesRowReference) {
  const char* const kCaching[] = {"off", "unbounded", "bounded-fifo",
                                  "adaptive"};
  const char* const kInner[] = {"SeqScan", "Filter", "IndexScan"};
  for (int caching = 0; caching < 4; ++caching) {
    for (int inner = 0; inner < 3; ++inner) {
      for (const size_t batch : {size_t{1}, size_t{7}, size_t{1024}}) {
        const Caching mode = static_cast<Caching>(caching);
        const Outcome want = RunReference(mode, batch, inner);
        ASSERT_FALSE(want.rows.empty());
        EXPECT_EQ(want.inner_opens, 9u);
        for (const bool vectorized : {true, false}) {
          SCOPED_TRACE(testing::Message()
                       << "caching=" << kCaching[caching]
                       << " inner=" << kInner[inner] << " batch=" << batch
                       << " vectorized=" << vectorized);
          const Outcome got = RunJoin(mode, batch, vectorized, inner);
          EXPECT_EQ(got.rows, want.rows);
          EXPECT_EQ(got.invocations, want.invocations);
          EXPECT_EQ(got.cache_enabled, want.cache_enabled);
          EXPECT_EQ(got.hits, want.hits);
          EXPECT_EQ(got.entries, want.entries);
          EXPECT_EQ(got.evictions, want.evictions);
          EXPECT_EQ(got.inner_opens, want.inner_opens);
          EXPECT_EQ(got.io.sequential_reads, want.io.sequential_reads);
          EXPECT_EQ(got.io.random_reads, want.io.random_reads);
          EXPECT_EQ(got.io.buffer_hits, want.io.buffer_hits);
          // Each mode exercises what it names.
          switch (mode) {
            case Caching::kOff:
              EXPECT_FALSE(got.cache_enabled);
              EXPECT_EQ(got.hits, 0u);
              break;
            case Caching::kUnbounded:
              EXPECT_GT(got.hits, 0u);
              EXPECT_EQ(got.evictions, 0u);
              break;
            case Caching::kBoundedFifo:
              EXPECT_GT(got.hits, 0u);
              EXPECT_GT(got.evictions, 0u);
              break;
            case Caching::kAdaptive:
              EXPECT_FALSE(got.cache_enabled);  // Disabled itself.
              EXPECT_EQ(got.hits, 0u);
              break;
          }
        }
      }
    }
  }
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

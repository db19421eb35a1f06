// Tests for the §5.1 caching design space: predicate-level caching
// (Montage), function-level caching ([Jhi88]), bounded caches with FIFO
// replacement, and the adaptive self-disable ("planned for Montage").

#include <gtest/gtest.h>

#include "common/sharded_memo.h"
#include "exec/executor.h"
#include "expr/predicate.h"
#include "obs/metrics.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace ppp::exec {
namespace {

using expr::Call;
using expr::Col;
using types::Tuple;
using types::TypeId;
using types::Value;

class CacheTest : public ::testing::Test {
 protected:
  CacheTest() : pool_(&disk_, 64), catalog_(&pool_) {
    // 1000 rows; grp cycles over 20 values, uniq is unique.
    auto table = catalog_.CreateTable(
        "t", {{"uniq", TypeId::kInt64}, {"grp", TypeId::kInt64}});
    EXPECT_TRUE(table.ok());
    for (int64_t i = 0; i < 1000; ++i) {
      EXPECT_TRUE((*table)->Insert(Tuple({Value(i), Value(i % 20)})).ok());
    }
    EXPECT_TRUE((*table)->Analyze().ok());
    EXPECT_TRUE(
        catalog_.functions().RegisterCostlyPredicate("f", 10, 0.5).ok());
    // A second, non-cacheable function.
    catalog::FunctionDef nc;
    nc.name = "volatile_f";
    nc.cost_per_call = 10;
    nc.selectivity = 0.5;
    nc.cacheable = false;
    nc.impl = [](const std::vector<Value>& args) {
      return Value(args[0].AsInt64() % 2 == 0);
    };
    EXPECT_TRUE(catalog_.functions().Register(std::move(nc)).ok());

    binding_ = {{"t", *catalog_.GetTable("t")}};
    analyzer_ = std::make_unique<expr::PredicateAnalyzer>(&catalog_, binding_);
  }

  expr::PredicateInfo Analyze(const expr::ExprPtr& e) {
    auto info = analyzer_->Analyze(e);
    EXPECT_TRUE(info.ok()) << info.status();
    return *info;
  }

  /// Runs Filter(f(t.<col>)) over the table under `params` and `knobs`;
  /// returns stats.
  ExecStats RunFilter(const std::string& col, const ExecParams& params,
                      const std::string& fn = "f",
                      const cost::CostParams& knobs = {}) {
    ExecContext ctx;
    ctx.catalog = &catalog_;
    ctx.binding = binding_;
    ctx.params = params;
    ctx.cost_params = knobs;
    plan::PlanPtr plan = plan::MakeFilter(
        plan::MakeSeqScan("t", "t"), Analyze(Call(fn, {Col("t", col)})));
    ExecStats stats;
    auto rows = ExecutePlan(*plan, &ctx, &stats);
    EXPECT_TRUE(rows.ok()) << rows.status();
    return stats;
  }

  storage::DiskManager disk_;
  storage::BufferPool pool_;
  catalog::Catalog catalog_;
  expr::TableBinding binding_;
  std::unique_ptr<expr::PredicateAnalyzer> analyzer_;
};

TEST_F(CacheTest, PredicateModeDeduplicates) {
  ExecParams params;
  params.cache_mode = CacheMode::kPredicate;
  EXPECT_EQ(RunFilter("grp", params).invocations.at("f"), 20u);
}

TEST_F(CacheTest, FunctionModeDeduplicates) {
  ExecParams params;
  params.cache_mode = CacheMode::kFunction;
  EXPECT_EQ(RunFilter("grp", params).invocations.at("f"), 20u);
}

TEST_F(CacheTest, NoneModeEvaluatesEverything) {
  ExecParams params;
  params.cache_mode = CacheMode::kNone;
  // kNone disables even with the master switch on.
  EXPECT_EQ(RunFilter("grp", params).invocations.at("f"), 1000u);
}

TEST_F(CacheTest, MasterSwitchOffDisablesAllModes) {
  for (const CacheMode mode :
       {CacheMode::kPredicate, CacheMode::kFunction}) {
    ExecParams params;
    params.cache_mode = mode;
    cost::CostParams knobs;
    knobs.predicate_caching = false;
    EXPECT_EQ(RunFilter("grp", params, "f", knobs).invocations.at("f"),
              1000u);
  }
}

TEST_F(CacheTest, AllModesProduceIdenticalResults) {
  std::vector<uint64_t> row_counts;
  for (const CacheMode mode :
       {CacheMode::kNone, CacheMode::kPredicate, CacheMode::kFunction}) {
    ExecParams params;
    params.cache_mode = mode;
    row_counts.push_back(RunFilter("grp", params).output_rows);
  }
  EXPECT_EQ(row_counts[0], row_counts[1]);
  EXPECT_EQ(row_counts[0], row_counts[2]);
}

TEST_F(CacheTest, BoundedPredicateCacheStillCorrect) {
  ExecParams params;
  params.cache_mode = CacheMode::kPredicate;
  params.cache_max_entries = 4;  // Far below the 20 distinct bindings.
  ExecParams unbounded;
  const ExecStats bounded_stats = RunFilter("grp", params);
  const ExecStats unbounded_stats = RunFilter("grp", unbounded);
  EXPECT_EQ(bounded_stats.output_rows, unbounded_stats.output_rows);
  // A 4-entry FIFO over a cycling 20-value stream thrashes: every probe
  // misses, so the invocation count approaches the no-cache count.
  EXPECT_GT(bounded_stats.invocations.at("f"),
            unbounded_stats.invocations.at("f"));
}

TEST_F(CacheTest, BoundedFunctionCacheEvicts) {
  ExecParams params;
  params.cache_mode = CacheMode::kFunction;
  params.cache_max_entries = 4;
  ExecContext ctx;
  ctx.catalog = &catalog_;
  ctx.binding = binding_;
  ctx.params = params;
  plan::PlanPtr plan = plan::MakeFilter(
      plan::MakeSeqScan("t", "t"), Analyze(Call("f", {Col("t", "grp")})));
  ExecStats stats;
  ASSERT_TRUE(ExecutePlan(*plan, &ctx, &stats).ok());
  EXPECT_LE(ctx.function_cache_storage.entries(), 4u);
  EXPECT_GT(ctx.function_cache_storage.evictions(), 0u);
}

TEST_F(CacheTest, NonCacheableFunctionNeverCached) {
  ExecParams params;
  params.cache_mode = CacheMode::kPredicate;
  EXPECT_EQ(RunFilter("grp", params, "volatile_f").invocations
                .at("volatile_f"),
            1000u);
  params.cache_mode = CacheMode::kFunction;
  EXPECT_EQ(RunFilter("grp", params, "volatile_f").invocations
                .at("volatile_f"),
            1000u);
}

TEST_F(CacheTest, AdaptiveCachingDisablesOnUniqueInputs) {
  ExecParams params;
  params.cache_mode = CacheMode::kPredicate;
  params.adaptive_caching = true;
  // All 1000 bindings distinct: the cache sees zero hits, disables itself
  // after the probe window, and everything still evaluates exactly once.
  const ExecStats stats = RunFilter("uniq", params);
  EXPECT_EQ(stats.invocations.at("f"), 1000u);
  EXPECT_EQ(stats.output_rows, RunFilter("uniq", ExecParams{}).output_rows);
}

TEST_F(CacheTest, AdaptiveCachingKeepsUsefulCaches) {
  ExecParams params;
  params.cache_mode = CacheMode::kPredicate;
  params.adaptive_caching = true;
  // 20 distinct bindings: plenty of hits, cache must stay on.
  EXPECT_EQ(RunFilter("grp", params).invocations.at("f"), 20u);
}

TEST_F(CacheTest, AdaptiveProbeWindowIsConfigurable) {
  // With a window larger than the input, the zero-hit check never fires
  // and the (useless) cache keeps absorbing entries: same invocation count
  // but one entry per distinct binding remains live.
  ExecParams params;
  params.cache_mode = CacheMode::kPredicate;
  params.adaptive_caching = true;
  params.adaptive_probe_window = 100000;
  EXPECT_EQ(RunFilter("uniq", params).invocations.at("f"), 1000u);

  // A tiny window disables almost immediately on unique inputs.
  params.adaptive_probe_window = 8;
  EXPECT_EQ(RunFilter("uniq", params).invocations.at("f"), 1000u);
}

TEST_F(CacheTest, AdaptiveWindowHonoredInFunctionMode) {
  // The adaptive self-disable applies to the [Jhi88] function cache too:
  // unique inputs, zero hits, cache disables after the window and the
  // query still evaluates every tuple exactly once.
  ExecParams params;
  params.cache_mode = CacheMode::kFunction;
  params.adaptive_caching = true;
  params.adaptive_probe_window = 64;
  ExecContext ctx;
  ctx.catalog = &catalog_;
  ctx.binding = binding_;
  ctx.params = params;
  plan::PlanPtr plan = plan::MakeFilter(
      plan::MakeSeqScan("t", "t"), Analyze(Call("f", {Col("t", "uniq")})));
  ExecStats stats;
  ASSERT_TRUE(ExecutePlan(*plan, &ctx, &stats).ok());
  EXPECT_EQ(stats.invocations.at("f"), 1000u);
  EXPECT_TRUE(ctx.function_cache_storage.disabled());
  // Entries were freed on disable (the footnote-4 swap concern).
  EXPECT_EQ(ctx.function_cache_storage.entries(), 0u);
}

TEST_F(CacheTest, ShardedCacheEvictsUnderParallelConfig) {
  // parallel_workers > 1 shards the predicate cache; the FIFO bound still
  // holds across shards and results stay correct.
  ExecParams params;
  params.cache_mode = CacheMode::kPredicate;
  params.cache_max_entries = 4;
  params.batch_size = 64;
  cost::CostParams knobs;
  knobs.parallel_workers = 4;
  const ExecStats sharded = RunFilter("grp", params, "f", knobs);
  const ExecStats unbounded = RunFilter("grp", ExecParams{});
  EXPECT_EQ(sharded.output_rows, unbounded.output_rows);
  EXPECT_GT(sharded.invocations.at("f"), unbounded.invocations.at("f"));
}

TEST_F(CacheTest, ShardedAdaptiveDisableUnderParallelConfig) {
  ExecParams params;
  params.cache_mode = CacheMode::kPredicate;
  params.adaptive_caching = true;
  params.batch_size = 128;
  cost::CostParams knobs;
  knobs.parallel_workers = 4;
  const ExecStats stats = RunFilter("uniq", params, "f", knobs);
  // Every distinct binding evaluated exactly once even while the cache
  // disables itself mid-run: pending-entry dedup keeps counters exact.
  EXPECT_EQ(stats.invocations.at("f"), 1000u);
  EXPECT_EQ(stats.output_rows, RunFilter("uniq", ExecParams{}).output_rows);
}

TEST_F(CacheTest, CachedPredicateAccessors) {
  ExecContext ctx;
  ctx.catalog = &catalog_;
  auto pred = CachedPredicate::Bind(
      Analyze(Call("f", {Col("t", "grp")})),
      (*catalog_.GetTable("t"))->RowSchemaForAlias("t"), ctx);
  ASSERT_TRUE(pred.ok());
  EXPECT_TRUE(pred->cache_enabled());
  expr::EvalContext eval;
  Tuple row({Value(int64_t{1}), Value(int64_t{5})});
  pred->Eval(row, &eval);
  pred->Eval(row, &eval);
  EXPECT_EQ(pred->cache_entries(), 1u);
  EXPECT_EQ(pred->cache_hits(), 1u);
  EXPECT_EQ(eval.InvocationsOf("f"), 1u);
}

TEST_F(CacheTest, LruKeepsHotKeysWhereFifoEvictsThem) {
  // Probe pattern: one hot key touched between every pair of cold keys.
  // FIFO evicts by insertion order, so the hot key ages out and recomputes;
  // LRU refreshes it on every hit, so it is computed exactly once.
  const auto run = [](bool lru) {
    common::ShardedMemo<bool>::Options options;
    options.max_entries = 4;
    options.lru = lru;
    common::ShardedMemo<bool> memo(options);
    size_t hot_computes = 0;
    for (int i = 0; i < 64; ++i) {
      memo.GetOrCompute("hot", [&] {
        ++hot_computes;
        return true;
      });
      memo.GetOrCompute("cold" + std::to_string(i), [] { return false; });
    }
    return hot_computes;
  };
  EXPECT_EQ(run(/*lru=*/true), 1u);
  EXPECT_GT(run(/*lru=*/false), 1u);
}

TEST_F(CacheTest, ByteBoundTriggersEvictions) {
  common::ShardedMemo<bool>::Options options;
  // Room for roughly four entries of ~(key + overhead) bytes.
  options.max_bytes =
      4 * (8 + common::ShardedMemo<bool>::kEntryOverhead);
  common::ShardedMemo<bool> memo(options);
  for (int i = 0; i < 100; ++i) {
    memo.GetOrCompute("key" + std::to_string(i), [] { return true; });
    EXPECT_LE(memo.approx_bytes(), options.max_bytes);
  }
  EXPECT_GT(memo.evictions(), 0u);
  EXPECT_LT(memo.entries(), 100u);
}

TEST_F(CacheTest, ByteBoundedPredicateCacheEndToEnd) {
  obs::Counter* evictions =
      obs::MetricsRegistry::Global().GetCounter("exec.pred_cache.evictions");
  const uint64_t before = evictions->value();
  ExecParams params;
  params.cache_mode = CacheMode::kPredicate;
  // Far below the 20 distinct 9-byte serialized bindings: must evict.
  params.cache_max_bytes = 300;
  const ExecStats bounded = RunFilter("grp", params);
  EXPECT_EQ(bounded.output_rows, RunFilter("grp", ExecParams{}).output_rows);
  EXPECT_GT(evictions->value(), before);
}

TEST_F(CacheTest, LruPredicateCacheEndToEnd) {
  // LRU with a bound below the distinct-binding count stays correct; with
  // a bound above it, LRU and FIFO behave identically (no evictions).
  ExecParams lru;
  lru.cache_mode = CacheMode::kPredicate;
  lru.cache_max_entries = 8;
  lru.cache_lru = true;
  const ExecStats bounded = RunFilter("grp", lru);
  EXPECT_EQ(bounded.output_rows, RunFilter("grp", ExecParams{}).output_rows);

  lru.cache_max_entries = 64;
  EXPECT_EQ(RunFilter("grp", lru).invocations.at("f"), 20u);
}

TEST_F(CacheTest, CheapPredicateNotCached) {
  ExecContext ctx;
  ctx.catalog = &catalog_;
  auto pred = CachedPredicate::Bind(
      Analyze(expr::Eq(Col("t", "grp"), expr::Int(1))),
      (*catalog_.GetTable("t"))->RowSchemaForAlias("t"), ctx);
  ASSERT_TRUE(pred.ok());
  EXPECT_FALSE(pred->cache_enabled());
}

}  // namespace
}  // namespace ppp::exec

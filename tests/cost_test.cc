#include <gtest/gtest.h>

#include <cmath>

#include "cost/cost_model.h"
#include "expr/predicate.h"
#include "plan/plan_node.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace ppp::cost {
namespace {

using expr::Call;
using expr::Col;
using expr::Eq;
using expr::Int;
using types::Tuple;
using types::TypeId;
using types::Value;

/// r: 1000 rows (r.key unique, r.grp 10 distinct), s: 5000 rows (s.key
/// unique, s.grp 50 distinct). All int columns plus padding so the tables
/// span a meaningful number of pages.
class CostModelTest : public ::testing::Test {
 protected:
  CostModelTest() : pool_(&disk_, 512), catalog_(&pool_) {
    MakeTable("r", 1000, 10);
    MakeTable("s", 5000, 50);
    EXPECT_TRUE(
        catalog_.functions().RegisterCostlyPredicate("costly", 100, 0.5)
            .ok());
    binding_ = {{"r", *catalog_.GetTable("r")}, {"s", *catalog_.GetTable("s")}};
    analyzer_ = std::make_unique<expr::PredicateAnalyzer>(&catalog_, binding_);
  }

  void MakeTable(const std::string& name, int64_t rows, int64_t groups) {
    auto table = catalog_.CreateTable(name, {{"key", TypeId::kInt64},
                                             {"grp", TypeId::kInt64},
                                             {"pad", TypeId::kString}});
    ASSERT_TRUE(table.ok());
    const std::string pad(60, 'p');
    for (int64_t i = 0; i < rows; ++i) {
      ASSERT_TRUE(
          (*table)->Insert(Tuple({Value(i), Value(i % groups), Value(pad)}))
              .ok());
    }
    ASSERT_TRUE((*table)->CreateIndex("key").ok());
    ASSERT_TRUE((*table)->Analyze().ok());
  }

  expr::PredicateInfo Analyze(const expr::ExprPtr& e) {
    auto info = analyzer_->Analyze(e);
    EXPECT_TRUE(info.ok()) << info.status();
    return *info;
  }

  CostModel Model(CostParams params = {}) {
    return CostModel(&catalog_, binding_, params);
  }

  storage::DiskManager disk_;
  storage::BufferPool pool_;
  catalog::Catalog catalog_;
  expr::TableBinding binding_;
  std::unique_ptr<expr::PredicateAnalyzer> analyzer_;
};

TEST_F(CostModelTest, SeqScanAnnotations) {
  CostModel model = Model();
  plan::PlanPtr scan = plan::MakeSeqScan("r", "r");
  ASSERT_TRUE(model.Annotate(scan.get()).ok());
  EXPECT_DOUBLE_EQ(scan->est_rows, 1000);
  const catalog::Table* r = binding_["r"];
  EXPECT_DOUBLE_EQ(scan->est_cost, static_cast<double>(r->NumPages()));
  EXPECT_GT(scan->est_width, 80);  // ~95 bytes serialized.
  EXPECT_FALSE(scan->est_order.has_value());
  EXPECT_DOUBLE_EQ(scan->est_udf_cost, 0);
}

TEST_F(CostModelTest, IndexScanAnnotations) {
  CostModel model = Model();
  plan::PlanPtr scan = plan::MakeIndexScan(
      "r", "r", "key", Value(int64_t{5}), Analyze(Eq(Col("r", "key"), Int(5))));
  ASSERT_TRUE(model.Annotate(scan.get()).ok());
  EXPECT_NEAR(scan->est_rows, 1.0, 1e-9);  // key is unique.
  EXPECT_NEAR(scan->est_cost, 3.0 + 1.0, 1e-9);  // Probe + one fetch.
  EXPECT_EQ(scan->est_order, std::optional<std::string>("r.key"));
}

TEST_F(CostModelTest, FilterAnnotations) {
  CostModel model = Model();
  plan::PlanPtr plan = plan::MakeFilter(
      plan::MakeSeqScan("r", "r"), Analyze(Call("costly", {Col("r", "key")})));
  ASSERT_TRUE(model.Annotate(plan.get()).ok());
  EXPECT_DOUBLE_EQ(plan->est_rows, 500);  // selectivity 0.5.
  // 1000 unique inputs -> 1000 evaluations at cost 100 each.
  EXPECT_DOUBLE_EQ(plan->est_udf_cost, 100000);
  EXPECT_DOUBLE_EQ(plan->est_cost, plan->children[0]->est_cost + 100000);
  // Expensive filters do not reduce est_rows_noexp.
  EXPECT_DOUBLE_EQ(plan->est_rows_noexp, 1000);
}

TEST_F(CostModelTest, FilterCachingBoundsEvaluations) {
  CostParams params;
  params.predicate_caching = true;
  CostModel model = Model(params);
  // Predicate on r.grp: only 10 distinct bindings, so at most 10
  // evaluations regardless of 1000 input rows (§5.1).
  plan::PlanPtr plan = plan::MakeFilter(
      plan::MakeSeqScan("r", "r"), Analyze(Call("costly", {Col("r", "grp")})));
  ASSERT_TRUE(model.Annotate(plan.get()).ok());
  EXPECT_DOUBLE_EQ(plan->est_udf_cost, 10 * 100);

  CostParams no_cache;
  no_cache.predicate_caching = false;
  CostModel model2 = Model(no_cache);
  ASSERT_TRUE(model2.Annotate(plan.get()).ok());
  EXPECT_DOUBLE_EQ(plan->est_udf_cost, 1000 * 100);
}

TEST_F(CostModelTest, CheapFilterReducesNoexpRows) {
  CostModel model = Model();
  plan::PlanPtr plan = plan::MakeFilter(plan::MakeSeqScan("r", "r"),
                                        Analyze(Eq(Col("r", "grp"), Int(3))));
  ASSERT_TRUE(model.Annotate(plan.get()).ok());
  EXPECT_DOUBLE_EQ(plan->est_rows, 100);
  EXPECT_DOUBLE_EQ(plan->est_rows_noexp, 100);
  EXPECT_DOUBLE_EQ(plan->est_udf_cost, 0);
}

plan::PlanPtr JoinOf(plan::JoinMethod method, plan::PlanPtr outer,
                     plan::PlanPtr inner, expr::PredicateInfo pred) {
  return plan::MakeJoin(method, std::move(outer), std::move(inner),
                        std::move(pred));
}

TEST_F(CostModelTest, JoinCardinalityUsesCrossProductSelectivity) {
  CostModel model = Model();
  plan::PlanPtr join =
      JoinOf(plan::JoinMethod::kHash, plan::MakeSeqScan("r", "r"),
             plan::MakeSeqScan("s", "s"),
             Analyze(Eq(Col("r", "key"), Col("s", "key"))));
  ASSERT_TRUE(model.Annotate(join.get()).ok());
  // s = 1/5000, out = 1000*5000/5000 = 1000.
  EXPECT_NEAR(join->est_rows, 1000, 1e-6);
  EXPECT_DOUBLE_EQ(join->est_width,
                   join->children[0]->est_width +
                       join->children[1]->est_width);
}

TEST_F(CostModelTest, NestedLoopChargesRescans) {
  CostModel model = Model();
  plan::PlanPtr join =
      JoinOf(plan::JoinMethod::kNestLoop, plan::MakeSeqScan("r", "r"),
             plan::MakeSeqScan("s", "s"),
             Analyze(Eq(Col("r", "key"), Col("s", "key"))));
  ASSERT_TRUE(model.Annotate(join.get()).ok());
  const double s_pages = static_cast<double>(binding_["s"]->NumPages());
  const double r_pages = static_cast<double>(binding_["r"]->NumPages());
  // outer scan + inner scan + (R-1) rescans of the inner.
  EXPECT_NEAR(join->est_cost, r_pages + s_pages + 999 * s_pages, 1.0);
}

TEST_F(CostModelTest, IndexNestLoopExcludesInnerScanCost) {
  CostModel model = Model();
  plan::PlanPtr join =
      JoinOf(plan::JoinMethod::kIndexNestLoop, plan::MakeSeqScan("r", "r"),
             plan::MakeSeqScan("s", "s"),
             Analyze(Eq(Col("r", "key"), Col("s", "key"))));
  ASSERT_TRUE(model.Annotate(join.get()).ok());
  const double r_pages = static_cast<double>(binding_["r"]->NumPages());
  // outer + 1000 probes * 3 + 1000 matching fetches * 1.
  EXPECT_NEAR(join->est_cost, r_pages + 1000 * 3 + 1000, 1.0);
}

TEST_F(CostModelTest, LinearityOfJoinCostInInputs) {
  // The paper's §3.2 requirement: join cost is k{R} + l{S} + m (no {R}{S}
  // term) for cheap primaries. Verify second differences vanish.
  CostModel model = Model();
  for (const plan::JoinMethod method :
       {plan::JoinMethod::kNestLoop, plan::JoinMethod::kIndexNestLoop,
        plan::JoinMethod::kMerge, plan::JoinMethod::kHash}) {
    plan::PlanPtr join =
        JoinOf(method, plan::MakeSeqScan("r", "r"),
               plan::MakeSeqScan("s", "s"),
               Analyze(Eq(Col("r", "key"), Col("s", "key"))));
    ASSERT_TRUE(model.Annotate(join.get()).ok());
    const double c00 = model.JoinExtraCost(*join, 1000, 5000);
    const double c10 = model.JoinExtraCost(*join, 2000, 5000);
    const double c01 = model.JoinExtraCost(*join, 1000, 10000);
    const double c11 = model.JoinExtraCost(*join, 2000, 10000);
    // Cross term ~ 0: c11 - c10 - c01 + c00 == 0 up to paging rounding,
    // except the index nested loop fetch term which is genuinely s*R*S but
    // tiny (s = 1/5000).
    const double cross = c11 - c10 - c01 + c00;
    if (method == plan::JoinMethod::kIndexNestLoop) {
      EXPECT_NEAR(cross, 1000.0, 10.0) << plan::JoinMethodName(method);
    } else {
      EXPECT_NEAR(cross, 0.0, 50.0) << plan::JoinMethodName(method);
    }
  }
}

TEST_F(CostModelTest, ExpensivePrimaryAddsCrossProductTerm) {
  CostParams params;
  params.predicate_caching = false;
  CostModel model = Model(params);
  plan::PlanPtr join =
      JoinOf(plan::JoinMethod::kNestLoop, plan::MakeSeqScan("r", "r"),
             plan::MakeSeqScan("s", "s"),
             Analyze(Call("costly", {Col("r", "key"), Col("s", "key")})));
  ASSERT_TRUE(model.Annotate(join.get()).ok());
  const double c00 = model.JoinExtraCost(*join, 100, 100);
  const double c11 = model.JoinExtraCost(*join, 200, 200);
  const double c10 = model.JoinExtraCost(*join, 200, 100);
  const double c01 = model.JoinExtraCost(*join, 100, 200);
  // c_p {R}{S}: second difference = 100 * 10000.
  EXPECT_NEAR(c11 - c10 - c01 + c00, 100.0 * 100 * 100, 200.0);
}

TEST_F(CostModelTest, PerInputSelectivityAsymmetric) {
  // Key-key join of 1000 x 5000: every r row survives (sel 1 over r),
  // one fifth of s rows survive (sel 0.2 over s) — the paper's motivating
  // example for discarding the global model (§3.2).
  CostParams params;
  params.predicate_caching = false;
  CostModel model = Model(params);
  plan::PlanPtr join =
      JoinOf(plan::JoinMethod::kHash, plan::MakeSeqScan("r", "r"),
             plan::MakeSeqScan("s", "s"),
             Analyze(Eq(Col("r", "key"), Col("s", "key"))));
  ASSERT_TRUE(model.Annotate(join.get()).ok());
  const JoinStreamInfo over_r = model.JoinStream(*join, 0);
  const JoinStreamInfo over_s = model.JoinStream(*join, 1);
  EXPECT_NEAR(over_r.selectivity, 1.0, 1e-9);   // (1/5000) * 5000.
  EXPECT_NEAR(over_s.selectivity, 0.2, 1e-9);   // (1/5000) * 1000.
}

TEST_F(CostModelTest, GlobalModelCollapsesPerInputSelectivity) {
  CostParams params;
  params.per_input_selectivity = false;
  CostModel model = Model(params);
  plan::PlanPtr join =
      JoinOf(plan::JoinMethod::kHash, plan::MakeSeqScan("r", "r"),
             plan::MakeSeqScan("s", "s"),
             Analyze(Eq(Col("r", "key"), Col("s", "key"))));
  ASSERT_TRUE(model.Annotate(join.get()).ok());
  EXPECT_NEAR(model.JoinStream(*join, 0).selectivity, 1.0 / 5000, 1e-9);
  EXPECT_NEAR(model.JoinStream(*join, 1).selectivity, 1.0 / 5000, 1e-9);
}

TEST_F(CostModelTest, CachingClampsPerInputSelectivityAtOne) {
  CostParams params;
  params.predicate_caching = true;
  CostModel model = Model(params);
  // Join r.grp (10 values) with s.grp (50 values): without caching, sel
  // over s would be (1/50)*1000 = 20; with value-based selectivities it is
  // min(1, (1/50)*10) = 0.2 (values of r.grp).
  plan::PlanPtr join =
      JoinOf(plan::JoinMethod::kHash, plan::MakeSeqScan("s", "s"),
             plan::MakeSeqScan("r", "r"),
             Analyze(Eq(Col("s", "grp"), Col("r", "grp"))));
  ASSERT_TRUE(model.Annotate(join.get()).ok());
  EXPECT_NEAR(model.JoinStream(*join, 0).selectivity, 0.2, 1e-9);

  CostParams no_cache;
  no_cache.predicate_caching = false;
  CostModel model2 = Model(no_cache);
  EXPECT_NEAR(model2.JoinStream(*join, 0).selectivity, (1.0 / 50) * 1000,
              1e-6);
}

TEST_F(CostModelTest, PessimisticCardinalityIgnoresExpensiveFilters) {
  CostParams params;
  params.predicate_caching = false;
  params.current_cardinality_estimate = false;  // Ablation A4.
  CostModel pessimistic = Model(params);
  CostParams current = params;
  current.current_cardinality_estimate = true;
  CostModel optimistic = Model(current);

  // Expensive filter on r halves {r}; the per-input selectivity of the
  // join over s = s * {r} differs accordingly.
  plan::PlanPtr join = JoinOf(
      plan::JoinMethod::kHash,
      plan::MakeFilter(plan::MakeSeqScan("r", "r"),
                       Analyze(Call("costly", {Col("r", "key")}))),
      plan::MakeSeqScan("s", "s"),
      Analyze(Eq(Col("r", "key"), Col("s", "key"))));
  ASSERT_TRUE(optimistic.Annotate(join.get()).ok());
  EXPECT_NEAR(optimistic.JoinStream(*join, 1).selectivity,
              (1.0 / 5000) * 500, 1e-9);
  ASSERT_TRUE(pessimistic.Annotate(join.get()).ok());
  EXPECT_NEAR(pessimistic.JoinStream(*join, 1).selectivity,
              (1.0 / 5000) * 1000, 1e-9);
}

TEST_F(CostModelTest, SortCostZeroWhenFitsInMemory) {
  CostParams params;
  params.buffer_pages = 1000;
  CostModel model = Model(params);
  EXPECT_DOUBLE_EQ(model.SortCost(500), 0.0);
  EXPECT_GT(model.SortCost(2000), 0.0);
}

TEST_F(CostModelTest, SortCostGrowsWithPasses) {
  CostParams params;
  params.buffer_pages = 10;
  params.sort_fanout = 8;
  CostModel model = Model(params);
  // 80 pages: 8 runs, 1 merge pass. 6400 pages: 640 runs, 4 passes.
  EXPECT_DOUBLE_EQ(model.SortCost(80), 2.0 * 80 * 1);
  EXPECT_DOUBLE_EQ(model.SortCost(6400), 2.0 * 6400 * 4);
}

TEST_F(CostModelTest, MergeJoinSkipsSortOnOrderedInput) {
  CostParams params;
  params.buffer_pages = 4;  // Everything spills: sorts are visible.
  CostModel model = Model(params);
  expr::PredicateInfo pred = Analyze(Eq(Col("r", "key"), Col("s", "key")));

  plan::PlanPtr unordered =
      JoinOf(plan::JoinMethod::kMerge, plan::MakeSeqScan("r", "r"),
             plan::MakeSeqScan("s", "s"), pred);
  ASSERT_TRUE(model.Annotate(unordered.get()).ok());

  // An index scan output is ordered on its column; the merge join on the
  // same column should skip that sort.
  plan::PlanPtr ordered = JoinOf(
      plan::JoinMethod::kMerge,
      plan::MakeIndexScan("r", "r", "key", Value(int64_t{1}),
                          Analyze(Eq(Col("r", "key"), Int(1)))),
      plan::MakeSeqScan("s", "s"), pred);
  ASSERT_TRUE(model.Annotate(ordered.get()).ok());
  const double unordered_extra =
      model.JoinExtraCost(*unordered, 1000, 5000);
  const double ordered_extra = model.JoinExtraCost(*ordered, 1000, 5000);
  EXPECT_LT(ordered_extra, unordered_extra);
}

TEST_F(CostModelTest, RankSignsAtZeroCost) {
  CostParams params;
  params.buffer_pages = 1 << 20;  // Joins are free.
  params.predicate_caching = false;
  CostModel model = Model(params);
  plan::PlanPtr join =
      JoinOf(plan::JoinMethod::kHash, plan::MakeSeqScan("r", "r"),
             plan::MakeSeqScan("s", "s"),
             Analyze(Eq(Col("r", "key"), Col("s", "key"))));
  ASSERT_TRUE(model.Annotate(join.get()).ok());
  // Over r: selectivity 1.0 -> rank +inf (never pull anything above...
  // i.e. the join is *not* beneficial for the r stream).
  EXPECT_TRUE(std::isinf(model.JoinStream(*join, 0).rank));
  EXPECT_GT(model.JoinStream(*join, 0).rank, 0);
  // Over s: selectivity 0.2 -> free filtering, rank -inf.
  EXPECT_TRUE(std::isinf(model.JoinStream(*join, 1).rank));
  EXPECT_LT(model.JoinStream(*join, 1).rank, 0);
}

TEST_F(CostModelTest, AnnotateFailsOnUnboundAlias) {
  CostModel model = Model();
  plan::PlanPtr scan = plan::MakeSeqScan("zz", "zz");
  EXPECT_FALSE(model.Annotate(scan.get()).ok());
}

TEST_F(CostModelTest, PagesForRoundsUp) {
  EXPECT_DOUBLE_EQ(CostModel::PagesFor(0, 100), 0.0);
  EXPECT_DOUBLE_EQ(CostModel::PagesFor(1, 100), 1.0);
  EXPECT_DOUBLE_EQ(CostModel::PagesFor(41, 100), 2.0);  // 4100 bytes.
}

}  // namespace
}  // namespace ppp::cost

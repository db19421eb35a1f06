// Correlated-subquery tests, built around the paper's §5.1 example:
//
//   SELECT name, gpa FROM student
//   WHERE student.mother IN
//     (SELECT name FROM professor WHERE professor.dept = student.dept);
//
// The subquery is rewritten into an expensive predicate whose cache is
// keyed on (student.mother, student.dept) — exactly the paper's hash table.

#include <gtest/gtest.h>

#include "exec/executor.h"
#include "expr/expr.h"
#include "optimizer/optimizer.h"
#include "parser/binder.h"
#include "parser/parser.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "subquery/rewrite.h"
#include "workload/measurement.h"

namespace ppp::subquery {
namespace {

using types::Tuple;
using types::TypeId;
using types::Value;

class SubqueryTest : public ::testing::Test {
 protected:
  SubqueryTest() : pool_(&disk_, 256), catalog_(&pool_) {
    // student(id, name_code, mother_code, dept, gpa): 300 students over
    // 10 departments; mother codes in [0, 100).
    auto student = catalog_.CreateTable(
        "student", {{"id", TypeId::kInt64},
                    {"name_code", TypeId::kInt64},
                    {"mother", TypeId::kInt64},
                    {"dept", TypeId::kInt64},
                    {"gpa", TypeId::kInt64}});
    // professor(name_code, dept): 50 professors; names in [0, 100).
    auto professor = catalog_.CreateTable(
        "professor",
        {{"name", TypeId::kInt64}, {"dept", TypeId::kInt64}});
    EXPECT_TRUE(student.ok());
    EXPECT_TRUE(professor.ok());
    for (int64_t i = 0; i < 300; ++i) {
      EXPECT_TRUE((*student)
                      ->Insert(Tuple({Value(i), Value(i % 97),
                                      Value((i * 7) % 100), Value(i % 10),
                                      Value(i % 4)}))
                      .ok());
    }
    for (int64_t i = 0; i < 50; ++i) {
      EXPECT_TRUE((*professor)
                      ->Insert(Tuple({Value((i * 3) % 100), Value(i % 10)}))
                      .ok());
    }
    EXPECT_TRUE((*student)->Analyze().ok());
    EXPECT_TRUE((*professor)->Analyze().ok());
  }

  /// Reference evaluation of the paper's query, straight from the data.
  std::set<int64_t> ExpectedStudentIds() {
    std::set<std::pair<int64_t, int64_t>> prof;  // (name, dept).
    for (int64_t i = 0; i < 50; ++i) {
      prof.insert({(i * 3) % 100, i % 10});
    }
    std::set<int64_t> out;
    for (int64_t i = 0; i < 300; ++i) {
      const int64_t mother = (i * 7) % 100;
      const int64_t dept = i % 10;
      if (prof.count({mother, dept}) > 0) out.insert(i);
    }
    return out;
  }

  storage::DiskManager disk_;
  storage::BufferPool pool_;
  catalog::Catalog catalog_;
};

constexpr char kPaperQuery[] =
    "SELECT student.id FROM student WHERE student.mother IN "
    "(SELECT name FROM professor WHERE professor.dept = student.dept)";

TEST_F(SubqueryTest, ParsesAndBinds) {
  auto spec = parser::ParseAndBind(kPaperQuery, catalog_);
  ASSERT_TRUE(spec.ok()) << spec.status();
  ASSERT_EQ(spec->conjuncts.size(), 1u);
  EXPECT_EQ(spec->conjuncts[0]->kind, expr::ExprKind::kInSubquery);
  // The needle and the correlated ref resolve to the outer table.
  EXPECT_EQ(spec->conjuncts[0]->children[0]->table, "student");
}

TEST_F(SubqueryTest, CollectTablesSeesCorrelationOnly) {
  auto spec = parser::ParseAndBind(kPaperQuery, catalog_);
  ASSERT_TRUE(spec.ok());
  // The IN predicate references only `student` from the outer query's
  // point of view (professor is internal).
  EXPECT_EQ(spec->conjuncts[0]->ReferencedTables(),
            (std::set<std::string>{"student"}));
}

TEST_F(SubqueryTest, RewriteSynthesizesExpensiveFunction) {
  auto spec = ParseBindRewrite(kPaperQuery, &catalog_);
  ASSERT_TRUE(spec.ok()) << spec.status();
  ASSERT_EQ(spec->conjuncts.size(), 1u);
  const expr::Expr& pred = *spec->conjuncts[0];
  ASSERT_EQ(pred.kind, expr::ExprKind::kFunctionCall);
  // Args: needle (student.mother) + correlation (student.dept).
  ASSERT_EQ(pred.children.size(), 2u);
  EXPECT_EQ(pred.children[0]->column, "mother");
  EXPECT_EQ(pred.children[1]->column, "dept");

  // The call owns its definition; the catalog's registry never sees it.
  ASSERT_NE(pred.function, nullptr);
  EXPECT_EQ(pred.function->name, pred.function_name);
  EXPECT_EQ(pred.function_name.rfind("__subq_", 0), 0u);
  EXPECT_FALSE(catalog_.functions().Contains(pred.function_name));
  auto def = expr::ResolveFunction(pred, catalog_.functions());
  ASSERT_TRUE(def.ok());
  EXPECT_EQ(*def, pred.function.get());
  EXPECT_GT((*def)->cost_per_call, 0);  // Estimated subquery cost.
  EXPECT_TRUE((*def)->cacheable);
  EXPECT_FALSE((*def)->charge_invocations);
}

TEST_F(SubqueryTest, RewriteLeavesTheRegistryUntouched) {
  // A compile registers nothing: the registry stays as it was loaded.
  const size_t before = catalog_.functions().Names().size();
  for (int i = 0; i < 200; ++i) {
    auto spec = ParseBindRewrite(
        "SELECT student.id FROM student WHERE student.mother IN "
        "(SELECT name FROM professor WHERE professor.dept = student.dept "
        "AND professor.name < " +
            std::to_string(i) + ")",
        &catalog_);
    ASSERT_TRUE(spec.ok()) << spec.status();
  }
  EXPECT_EQ(catalog_.functions().Names().size(), before);
}

TEST_F(SubqueryTest, NameIsStableAcrossCompilesAndApartPerLiteral) {
  const auto name = [&](const std::string& sql) {
    auto spec = ParseBindRewrite(sql, &catalog_);
    EXPECT_TRUE(spec.ok()) << spec.status();
    return spec.ok() ? spec->conjuncts[0]->function_name : std::string();
  };
  EXPECT_EQ(name(kPaperQuery), name(kPaperQuery));
  const std::string prefix =
      "SELECT student.id FROM student WHERE student.mother IN "
      "(SELECT name FROM professor WHERE professor.dept = student.dept "
      "AND professor.name < ";
  EXPECT_NE(name(prefix + "10)"), name(prefix + "11)"));
  // Expr::ToString prints both of these as 1; the name must not.
  EXPECT_NE(name(prefix + "1.0000001)"), name(prefix + "1.0000002)"));
  // Another correlation column.
  EXPECT_NE(name(kPaperQuery),
            name("SELECT student.id FROM student WHERE student.mother IN "
                 "(SELECT name FROM professor WHERE professor.dept = "
                 "student.gpa)"));
}

TEST_F(SubqueryTest, ExecutesCorrectly) {
  auto spec = ParseBindRewrite(kPaperQuery, &catalog_);
  ASSERT_TRUE(spec.ok()) << spec.status();

  optimizer::Optimizer opt(&catalog_, {});
  auto result = opt.Optimize(*spec, optimizer::Algorithm::kMigration);
  ASSERT_TRUE(result.ok()) << result.status();

  exec::ExecContext ctx;
  ctx.catalog = &catalog_;
  ctx.binding = {{"student", *catalog_.GetTable("student")}};
  auto rows = exec::ExecutePlan(*result->plan, &ctx, nullptr);
  ASSERT_TRUE(rows.ok()) << rows.status();

  std::set<int64_t> got;
  for (const types::Tuple& row : *rows) got.insert(row.Get(0).AsInt64());
  EXPECT_EQ(got, ExpectedStudentIds());
  EXPECT_FALSE(got.empty());  // The fixture guarantees matches.
}

TEST_F(SubqueryTest, PredicateCacheKeyedOnOuterBindings) {
  auto spec = ParseBindRewrite(kPaperQuery, &catalog_);
  ASSERT_TRUE(spec.ok());
  const std::string fn = spec->conjuncts[0]->function_name;

  optimizer::Optimizer opt(&catalog_, {});
  auto result = opt.Optimize(*spec, optimizer::Algorithm::kPushDown);
  ASSERT_TRUE(result.ok());

  exec::ExecContext ctx;
  ctx.catalog = &catalog_;
  ctx.cost_params.predicate_caching = true;
  ctx.binding = {{"student", *catalog_.GetTable("student")}};
  exec::ExecStats stats;
  ASSERT_TRUE(exec::ExecutePlan(*result->plan, &ctx, &stats).ok());
  // (mother, dept) over this data has at most 300 combinations but the
  // cache must deduplicate repeats; the invocation count equals the number
  // of distinct bindings, which is < 300 here.
  ASSERT_GT(stats.invocations.at(fn), 0u);
  EXPECT_LT(stats.invocations.at(fn), 300u);
}

TEST_F(SubqueryTest, UncorrelatedSubquery) {
  auto spec = ParseBindRewrite(
      "SELECT student.id FROM student WHERE student.dept IN "
      "(SELECT dept FROM professor WHERE professor.name < 10)",
      &catalog_);
  ASSERT_TRUE(spec.ok()) << spec.status();
  const expr::Expr& pred = *spec->conjuncts[0];
  ASSERT_EQ(pred.kind, expr::ExprKind::kFunctionCall);
  EXPECT_EQ(pred.children.size(), 1u);  // Needle only, no correlation.

  optimizer::Optimizer opt(&catalog_, {});
  auto result = opt.Optimize(*spec, optimizer::Algorithm::kMigration);
  ASSERT_TRUE(result.ok());
  exec::ExecContext ctx;
  ctx.catalog = &catalog_;
  ctx.binding = {{"student", *catalog_.GetTable("student")}};
  exec::ExecStats stats;
  auto rows = exec::ExecutePlan(*result->plan, &ctx, &stats);
  ASSERT_TRUE(rows.ok());
  // Uncorrelated: the call's only argument is the needle, so the §5.1
  // cache runs the subquery once per distinct needle value.
  EXPECT_GT(rows->size(), 0u);
}

TEST_F(SubqueryTest, SubqueryPlacementRespondsToCost) {
  // Join the student table against itself so there is a join to place the
  // expensive IN predicate around.
  const std::string sql =
      "SELECT a.id FROM student a, student b WHERE a.id = b.mother "
      "AND a.mother IN (SELECT name FROM professor WHERE "
      "professor.dept = a.dept)";
  auto spec = ParseBindRewrite(sql, &catalog_);
  ASSERT_TRUE(spec.ok()) << spec.status();

  optimizer::Optimizer opt(&catalog_, {});
  auto result = opt.Optimize(*spec, optimizer::Algorithm::kMigration);
  ASSERT_TRUE(result.ok()) << result.status();
  // The subquery predicate must appear exactly once in the plan.
  int filters = 0;
  std::vector<const plan::PlanNode*> stack = {result->plan.get()};
  while (!stack.empty()) {
    const plan::PlanNode* node = stack.back();
    stack.pop_back();
    if (node->kind == plan::PlanKind::kFilter &&
        node->predicate.is_expensive()) {
      ++filters;
    }
    for (const plan::PlanPtr& child : node->children) {
      stack.push_back(child.get());
    }
  }
  EXPECT_EQ(filters, 1);
}

TEST_F(SubqueryTest, InRequiresParenthesizedSelect) {
  EXPECT_FALSE(parser::ParseSelect(
                   "SELECT * FROM student WHERE mother IN professor")
                   .ok());
  EXPECT_FALSE(parser::ParseSelect(
                   "SELECT * FROM student WHERE mother IN (1, 2, 3)")
                   .ok());
}

TEST_F(SubqueryTest, BindRejectsUnknownInnerTable) {
  EXPECT_FALSE(parser::ParseAndBind(
                   "SELECT * FROM student WHERE mother IN "
                   "(SELECT name FROM nonexistent)",
                   catalog_)
                   .ok());
}

TEST_F(SubqueryTest, ExecutingUnrewrittenSubqueryFails) {
  auto spec = parser::ParseAndBind(kPaperQuery, catalog_);
  ASSERT_TRUE(spec.ok());
  optimizer::Optimizer opt(&catalog_, {});
  auto result = opt.Optimize(*spec, optimizer::Algorithm::kPushDown);
  // Either optimization or execution must fail cleanly (no crash): the
  // evaluator refuses unrewritten IN nodes.
  if (result.ok()) {
    exec::ExecContext ctx;
    ctx.catalog = &catalog_;
    ctx.binding = {{"student", *catalog_.GetTable("student")}};
    EXPECT_FALSE(exec::ExecutePlan(*result->plan, &ctx, nullptr).ok());
  }
}

}  // namespace
}  // namespace ppp::subquery

// Columnar batch pipeline coverage: ColumnBatch storage and selection
// semantics, the vectorized comparison kernels pinned against the scalar
// evaluator (including NULL and NaN behaviour), the FilterOp cheap-prefix
// split's exact UDF invocation-counter parity, Bloom-transfer hash
// equivalence on the columnar probe path, the pipeline breakers (HashJoin
// build, MergeJoin, Sort) over column batches against row semantics, and
// the Q1-Q5 end-to-end parity suite (rows, invocations and page traffic)
// across vectorized {on,off} x workers {1,4} x transfer {on,off}.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "catalog/function_registry.h"
#include "exec/executor.h"
#include "exec/filter_op.h"
#include "exec/vector_filter.h"
#include "expr/evaluator.h"
#include "expr/predicate.h"
#include "optimizer/optimizer.h"
#include "plan/plan_node.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "subquery/rewrite.h"
#include "types/column_batch.h"
#include "workload/database.h"
#include "workload/measurement.h"
#include "workload/queries.h"
#include "workload/schema_gen.h"

namespace ppp {
namespace {

using exec::ExecParams;
using exec::ExecStats;
using exec::VectorizedPredicate;
using optimizer::Algorithm;
using expr::Call;
using expr::Cmp;
using expr::Col;
using expr::CompareOp;
using expr::Const;
using expr::Eq;
using expr::ExprPtr;
using expr::Int;
using types::ColumnBatch;
using types::ColumnInfo;
using types::RowSchema;
using types::Tuple;
using types::TypeId;
using types::Value;

// ---------------------------------------------------------------------------
// ColumnBatch storage semantics.
// ---------------------------------------------------------------------------

RowSchema FourColSchema() {
  return RowSchema({ColumnInfo{"t", "a", TypeId::kInt64},
                    ColumnInfo{"t", "x", TypeId::kDouble},
                    ColumnInfo{"t", "b", TypeId::kBool},
                    ColumnInfo{"t", "s", TypeId::kString}});
}

std::vector<Tuple> MixedRows() {
  return {
      Tuple({Value(int64_t{1}), Value(1.5), Value(true), Value("hello")}),
      Tuple({Value(), Value(), Value(), Value()}),
      Tuple({Value(int64_t{-7}), Value(-2.25), Value(false), Value("")}),
      Tuple({Value(int64_t{1} << 40), Value(0.0), Value(true),
             Value(std::string(300, 'z'))}),
  };
}

TEST(ColumnBatchTest, AppendSerializedRoundtrip) {
  ColumnBatch batch(FourColSchema());
  const std::vector<Tuple> rows = MixedRows();
  for (const Tuple& t : rows) {
    ASSERT_TRUE(batch.AppendSerialized(t.Serialize()).ok());
  }
  ASSERT_EQ(batch.num_rows(), rows.size());
  EXPECT_TRUE(batch.all_selected());
  for (size_t c = 0; c < batch.num_columns(); ++c) {
    EXPECT_FALSE(batch.column(c).boxed) << "column " << c;
  }
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(batch.RowAsTuple(i).Serialize(), rows[i].Serialize())
        << "row " << i;
  }
  // NULL placement agrees with the source tuples.
  EXPECT_FALSE(batch.IsNull(0, 0));
  EXPECT_TRUE(batch.IsNull(0, 1));
  EXPECT_TRUE(batch.IsNull(3, 1));
}

TEST(ColumnBatchTest, AppendTupleMatchesSerializedPath) {
  const std::vector<Tuple> rows = MixedRows();
  ColumnBatch from_bytes(FourColSchema());
  ColumnBatch from_tuples(FourColSchema());
  for (const Tuple& t : rows) {
    ASSERT_TRUE(from_bytes.AppendSerialized(t.Serialize()).ok());
    from_tuples.AppendTuple(t);
  }
  ASSERT_EQ(from_bytes.num_rows(), from_tuples.num_rows());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(from_bytes.RowAsTuple(i).Serialize(),
              from_tuples.RowAsTuple(i).Serialize());
  }
}

TEST(ColumnBatchTest, TypeMismatchBoxesColumnAndKernelDeclines) {
  RowSchema schema({ColumnInfo{"t", "a", TypeId::kInt64}});
  ColumnBatch batch(schema);
  batch.AppendTuple(Tuple({Value(int64_t{3})}));
  EXPECT_FALSE(batch.column(0).boxed);
  // A string lands in a declared-int64 column: the whole column boxes and
  // earlier rows stay readable.
  batch.AppendTuple(Tuple({Value("oops")}));
  EXPECT_TRUE(batch.column(0).boxed);
  EXPECT_EQ(batch.GetValue(0, 0).AsInt64(), 3);
  EXPECT_EQ(batch.GetValue(0, 1).AsString(), "oops");

  auto kernel = VectorizedPredicate::Compile(
      Cmp(CompareOp::kLt, Col("t", "a"), Int(5)), schema);
  ASSERT_TRUE(kernel.has_value());
  EXPECT_FALSE(kernel->Applicable(batch));
}

TEST(ColumnBatchTest, ToTuplesAndCompactHonorSelection) {
  RowSchema schema({ColumnInfo{"t", "a", TypeId::kInt64},
                    ColumnInfo{"t", "s", TypeId::kString}});
  ColumnBatch batch(schema);
  for (int64_t i = 0; i < 8; ++i) {
    batch.AppendTuple(Tuple({Value(i), Value("str" + std::to_string(i))}));
  }
  *batch.mutable_selection() = {1, 3, 5};

  std::vector<Tuple> out;
  batch.ToTuples(&out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].Get(0).AsInt64(), 1);
  EXPECT_EQ(out[2].Get(1).AsString(), "str5");

  batch.Compact();
  EXPECT_EQ(batch.num_rows(), 3u);
  EXPECT_TRUE(batch.all_selected());
  // The string arena was rebuilt: positional access sees the survivors.
  EXPECT_EQ(batch.GetValue(0, 2).AsInt64(), 5);
  EXPECT_EQ(batch.GetValue(1, 1).AsString(), "str3");
}

TEST(ColumnBatchTest, ClearAndResetReuse) {
  RowSchema schema({ColumnInfo{"t", "a", TypeId::kInt64}});
  ColumnBatch batch(schema);
  batch.AppendTuple(Tuple({Value(int64_t{1})}));
  batch.Clear();
  EXPECT_EQ(batch.num_rows(), 0u);
  EXPECT_EQ(batch.selected(), 0u);
  batch.AppendTuple(Tuple({Value(int64_t{2})}));
  ASSERT_EQ(batch.num_rows(), 1u);
  EXPECT_EQ(batch.GetValue(0, 0).AsInt64(), 2);

  // Reset with the same schema behaves like Clear; with a new schema it
  // adopts the new layout.
  batch.Reset(schema);
  EXPECT_EQ(batch.num_rows(), 0u);
  RowSchema other({ColumnInfo{"u", "x", TypeId::kDouble}});
  batch.Reset(other);
  EXPECT_EQ(batch.schema().Column(0).name, "x");
  batch.AppendTuple(Tuple({Value(3.5)}));
  EXPECT_DOUBLE_EQ(batch.GetValue(0, 0).AsDouble(), 3.5);
}

// ---------------------------------------------------------------------------
// Vectorized kernels pinned against the scalar evaluator.
// ---------------------------------------------------------------------------

/// Runs `e` both as a compiled kernel and through BoundExpr on every row,
/// in standalone mode (NULL drops) and prefix mode (NULL survives,
/// flagged), and requires identical survivor sets.
void CheckKernelAgainstScalar(const ExprPtr& e, const RowSchema& schema,
                              const std::vector<Tuple>& rows) {
  auto kernel = VectorizedPredicate::Compile(e, schema);
  ASSERT_TRUE(kernel.has_value());

  catalog::FunctionRegistry registry;
  auto bound = expr::BoundExpr::Bind(e, schema, registry);
  ASSERT_TRUE(bound.ok()) << bound.status();
  expr::EvalContext ectx;

  // Standalone: survivors are exactly the EvalBool-true rows.
  ColumnBatch batch(schema);
  for (const Tuple& t : rows) batch.AppendTuple(t);
  ASSERT_TRUE(kernel->Applicable(batch));
  kernel->Filter(&batch, nullptr);
  std::vector<uint32_t> expect;
  for (uint32_t i = 0; i < rows.size(); ++i) {
    if ((*bound)->EvalBool(rows[i], &ectx)) expect.push_back(i);
  }
  EXPECT_EQ(batch.selection(), expect);

  // Prefix mode: NULL-evaluating rows survive with their flag set.
  ColumnBatch prefix_batch(schema);
  for (const Tuple& t : rows) prefix_batch.AppendTuple(t);
  std::vector<uint8_t> maybe_null(rows.size(), 0);
  kernel->Filter(&prefix_batch, &maybe_null);
  std::vector<uint32_t> expect_sel;
  std::vector<uint8_t> expect_mn(rows.size(), 0);
  for (uint32_t i = 0; i < rows.size(); ++i) {
    const Value v = (*bound)->Eval(rows[i], &ectx);
    if (v.is_null()) {
      expect_sel.push_back(i);
      expect_mn[i] = 1;
    } else if (v.AsBool()) {
      expect_sel.push_back(i);
    }
  }
  EXPECT_EQ(prefix_batch.selection(), expect_sel);
  EXPECT_EQ(maybe_null, expect_mn);
}

class VectorKernelTest : public ::testing::Test {
 protected:
  VectorKernelTest()
      : schema_({ColumnInfo{"t", "a", TypeId::kInt64},
                 ColumnInfo{"t", "c", TypeId::kInt64},
                 ColumnInfo{"t", "x", TypeId::kDouble},
                 ColumnInfo{"t", "s", TypeId::kString},
                 ColumnInfo{"t", "s2", TypeId::kString}}) {
    auto row = [](Value a, Value c, Value x, Value s, Value s2) {
      return Tuple({std::move(a), std::move(c), std::move(x), std::move(s),
                    std::move(s2)});
    };
    const double nan = std::nan("");
    rows_ = {
        row(Value(int64_t{0}), Value(int64_t{0}), Value(0.0), Value("a"),
            Value("a")),
        row(Value(int64_t{5}), Value(int64_t{4}), Value(2.5), Value("mmm"),
            Value("mm")),
        row(Value(int64_t{-3}), Value(int64_t{7}), Value(-1.0), Value(""),
            Value("zzz")),
        row(Value(int64_t{5}), Value(int64_t{5}), Value(5.0), Value("mmm"),
            Value("mmm")),
        row(Value(), Value(int64_t{2}), Value(nan), Value(), Value("q")),
        row(Value(int64_t{9}), Value(), Value(nan), Value("zz"), Value()),
        row(Value(int64_t{1} << 40), Value(int64_t{5}), Value(2.5),
            Value("ab"), Value("ab")),
    };
  }

  RowSchema schema_;
  std::vector<Tuple> rows_;
};

TEST_F(VectorKernelTest, AllOpsMatchScalarEvaluator) {
  const CompareOp kOps[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                            CompareOp::kLe, CompareOp::kGt, CompareOp::kGe};
  for (CompareOp op : kOps) {
    SCOPED_TRACE(expr::CompareOpSymbol(op));
    // int64 column vs int64 constant, both operand orders.
    CheckKernelAgainstScalar(Cmp(op, Col("t", "a"), Int(5)), schema_, rows_);
    CheckKernelAgainstScalar(Cmp(op, Int(5), Col("t", "a")), schema_, rows_);
    // int64 column vs int64 column.
    CheckKernelAgainstScalar(Cmp(op, Col("t", "a"), Col("t", "c")), schema_,
                             rows_);
    // double column vs double constant (NaN rows included).
    CheckKernelAgainstScalar(Cmp(op, Col("t", "x"), Const(Value(2.5))),
                             schema_, rows_);
    // Mixed numeric: int64 column against a double constant and a double
    // column — forced through the double comparison path.
    CheckKernelAgainstScalar(Cmp(op, Col("t", "a"), Const(Value(2.5))),
                             schema_, rows_);
    CheckKernelAgainstScalar(Cmp(op, Col("t", "a"), Col("t", "x")), schema_,
                             rows_);
    // Strings: column vs constant and column vs column.
    CheckKernelAgainstScalar(Cmp(op, Col("t", "s"), Const(Value("mmm"))),
                             schema_, rows_);
    CheckKernelAgainstScalar(Cmp(op, Col("t", "s"), Col("t", "s2")), schema_,
                             rows_);
  }
}

/// Value::Compare's numeric order written out independently: NaN equals
/// NaN and sorts above every other number, -0.0 equals 0.0.
int ModelCompare(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) {
    return std::isnan(a) == std::isnan(b) ? 0 : (std::isnan(a) ? 1 : -1);
  }
  return a < b ? -1 : (a > b ? 1 : 0);
}

bool ModelHolds(CompareOp op, int c) {
  switch (op) {
    case CompareOp::kEq:
      return c == 0;
    case CompareOp::kNe:
      return c != 0;
    case CompareOp::kLt:
      return c < 0;
    case CompareOp::kLe:
      return c <= 0;
    case CompareOp::kGt:
      return c > 0;
    case CompareOp::kGe:
      return c >= 0;
  }
  return false;
}

TEST(VectorNaNTest, AllOpsPlaceNaNAboveEveryNumber) {
  // x holds NaN (two payloads), ±0.0, ±inf, integral and fractional
  // doubles; a holds ints. Kernel, scalar evaluator and the model order
  // must agree on every operator.
  const RowSchema schema({ColumnInfo{"t", "x", TypeId::kDouble},
                          ColumnInfo{"t", "a", TypeId::kInt64}});
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::pair<double, int64_t>> cells = {
      {nan, 3},   {-nan, 0},    {0.0, 0},  {-0.0, -1}, {inf, 5},
      {-inf, -5}, {3.0, 3},     {-2.0, 7}, {2.5, 2},   {nan, -9},
      {1e300, 4}, {-1e300, -4},
  };
  std::vector<Tuple> rows;
  for (const auto& [x, a] : cells) rows.push_back(Tuple({Value(x), Value(a)}));
  rows.push_back(Tuple({Value(), Value(int64_t{1})}));  // NULL never passes.

  struct Case {
    ExprPtr rhs;
    double rhs_value;  // NaN/inf/number the model compares against.
    bool column;       // rhs is column a.
  };
  const std::vector<Case> cases = {
      {Const(Value(nan)), nan, false},   {Const(Value(0.0)), 0.0, false},
      {Const(Value(-0.0)), -0.0, false}, {Const(Value(inf)), inf, false},
      {Const(Value(-inf)), -inf, false}, {Int(3), 3.0, false},
      {Col("t", "a"), 0.0, true},
  };
  // Runs `e` as a kernel and through the scalar evaluator, and requires
  // the kernel's survivors to be the rows `model` accepts.
  const auto check = [&](const ExprPtr& e, const auto& model) {
    CheckKernelAgainstScalar(e, schema, rows);
    auto kernel = VectorizedPredicate::Compile(e, schema);
    ASSERT_TRUE(kernel.has_value());
    ColumnBatch batch(schema);
    for (const Tuple& t : rows) batch.AppendTuple(t);
    kernel->Filter(&batch, nullptr);
    std::vector<uint32_t> expected;
    for (uint32_t i = 0; i < rows.size(); ++i) {
      if (model(i)) expected.push_back(i);
    }
    EXPECT_EQ(batch.selection(), expected);
  };
  const CompareOp kOps[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                            CompareOp::kLe, CompareOp::kGt, CompareOp::kGe};
  for (CompareOp op : kOps) {
    for (size_t c = 0; c < cases.size(); ++c) {
      SCOPED_TRACE(testing::Message()
                   << "x " << expr::CompareOpSymbol(op) << " case " << c);
      check(Cmp(op, Col("t", "x"), cases[c].rhs), [&](uint32_t i) {
        if (i >= cells.size()) return false;  // The NULL row.
        const double rhs = cases[c].column
                               ? static_cast<double>(cells[i].second)
                               : cases[c].rhs_value;
        return ModelHolds(op, ModelCompare(cells[i].first, rhs));
      });
    }
    // The int column against a NaN constant: no int equals NaN, every int
    // sorts below it.
    SCOPED_TRACE(testing::Message() << "a " << expr::CompareOpSymbol(op)
                                    << " NaN");
    check(Cmp(op, Col("t", "a"), Const(Value(nan))),
          [&](uint32_t) { return ModelHolds(op, -1); });
  }
}

TEST_F(VectorKernelTest, DeclinesNonVectorizableShapes) {
  // Function calls, boolean connectives, arithmetic, string-vs-number
  // operands, NULL literals and const-const comparisons all stay scalar.
  EXPECT_FALSE(VectorizedPredicate::Compile(Call("f", {Col("t", "a")}),
                                            schema_)
                   .has_value());
  EXPECT_FALSE(VectorizedPredicate::Compile(
                   expr::Or(Eq(Col("t", "a"), Int(1)),
                            Eq(Col("t", "a"), Int(2))),
                   schema_)
                   .has_value());
  EXPECT_FALSE(VectorizedPredicate::Compile(
                   Cmp(CompareOp::kLt,
                       expr::Arith(expr::ArithOp::kAdd, Col("t", "a"),
                                   Int(1)),
                       Int(5)),
                   schema_)
                   .has_value());
  EXPECT_FALSE(VectorizedPredicate::Compile(
                   Cmp(CompareOp::kLt, Col("t", "s"), Int(5)), schema_)
                   .has_value());
  EXPECT_FALSE(VectorizedPredicate::Compile(
                   Cmp(CompareOp::kLt, Col("t", "a"), Const(Value())),
                   schema_)
                   .has_value());
  EXPECT_FALSE(VectorizedPredicate::Compile(
                   Cmp(CompareOp::kLt, Int(1), Int(2)), schema_)
                   .has_value());
  // Unknown column.
  EXPECT_FALSE(VectorizedPredicate::Compile(
                   Cmp(CompareOp::kLt, Col("t", "nope"), Int(5)), schema_)
                   .has_value());
}

TEST_F(VectorKernelTest, SelectionEdgeCases) {
  auto kernel = VectorizedPredicate::Compile(
      Cmp(CompareOp::kGe, Col("t", "a"), Int(0)), schema_);
  ASSERT_TRUE(kernel.has_value());

  // Empty batch.
  ColumnBatch empty(schema_);
  kernel->Filter(&empty, nullptr);
  EXPECT_EQ(empty.selected(), 0u);

  // All-pass and all-fail over non-null rows.
  ColumnBatch batch(schema_);
  for (const Tuple& t : rows_) {
    if (!t.Get(0).is_null()) batch.AppendTuple(t);
  }
  const size_t n = batch.num_rows();
  auto all_pass = VectorizedPredicate::Compile(
      Cmp(CompareOp::kGe, Col("t", "a"), Int(-100)), schema_);
  all_pass->Filter(&batch, nullptr);
  EXPECT_EQ(batch.selected(), n);
  auto all_fail = VectorizedPredicate::Compile(
      Cmp(CompareOp::kLt, Col("t", "a"), Int(-100)), schema_);
  all_fail->Filter(&batch, nullptr);
  EXPECT_EQ(batch.selected(), 0u);
}

// ---------------------------------------------------------------------------
// FilterOp split behaviour and execution parity.
// ---------------------------------------------------------------------------

std::vector<std::string> Canon(const std::vector<Tuple>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Tuple& t : rows) out.push_back(t.Serialize());
  std::sort(out.begin(), out.end());
  return out;
}

/// t: `rows` rows — key unique, a = key % 10 but NULL when key % 13 == 0,
/// x = key * 0.5, pad a short string. An expensive "costly" predicate is
/// registered (cost 100, selectivity 0.5).
class VectorExecTest : public ::testing::Test {
 protected:
  VectorExecTest() : pool_(&disk_, 128), catalog_(&pool_) {
    auto table = catalog_.CreateTable("t", {{"key", TypeId::kInt64},
                                            {"a", TypeId::kInt64},
                                            {"x", TypeId::kDouble},
                                            {"pad", TypeId::kString}});
    EXPECT_TRUE(table.ok());
    for (int64_t i = 0; i < 300; ++i) {
      Value a = (i % 13 == 0) ? Value() : Value(i % 10);
      EXPECT_TRUE((*table)
                      ->Insert(Tuple({Value(i), std::move(a), Value(i * 0.5),
                                      Value("p" + std::to_string(i))}))
                      .ok());
    }
    EXPECT_TRUE((*table)->Analyze().ok());
    EXPECT_TRUE(
        catalog_.functions().RegisterCostlyPredicate("costly", 100, 0.5)
            .ok());
    binding_ = {{"t", *catalog_.GetTable("t")}};
    analyzer_ = std::make_unique<expr::PredicateAnalyzer>(&catalog_, binding_);
  }

  expr::PredicateInfo Analyze(const ExprPtr& e) {
    auto info = analyzer_->Analyze(e);
    EXPECT_TRUE(info.ok()) << info.status();
    return *info;
  }

  std::vector<Tuple> Run(const plan::PlanNode& plan, const ExecParams& params,
                         ExecStats* stats,
                         std::unique_ptr<exec::Operator>* root = nullptr,
                         const cost::CostParams& knobs = {}) {
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

TEST_F(VectorExecTest, SplitEngagesOnlyWhenSafe) {
  const ExprPtr cheap2 = expr::And(Cmp(CompareOp::kLt, Col("t", "a"), Int(5)),
                                   Cmp(CompareOp::kLt, Col("t", "key"),
                                       Int(200)));
  const ExprPtr mixed = expr::And(Cmp(CompareOp::kLt, Col("t", "a"), Int(5)),
                                  Call("costly", {Col("t", "key")}));

  // Cheap conjunction: fully vectorized, even with caching on (cheap
  // predicates never engage the memo).
  ExecParams caching_on;
  std::unique_ptr<exec::Operator> root;
  {
    plan::PlanPtr plan = plan::MakeFilter(plan::MakeSeqScan("t", "t"),
                                          Analyze(cheap2));
    ExecStats stats;
    Run(*plan, caching_on, &stats, &root);
    auto* filter = dynamic_cast<exec::FilterOp*>(root.get());
    ASSERT_NE(filter, nullptr);
    EXPECT_EQ(filter->vectorized_conjuncts(), 2u);
    EXPECT_TRUE(filter->provides_columns());
    EXPECT_NE(filter->Describe().find("vector"), std::string::npos);
  }

  // Mixed conjunction with the predicate cache engaged: never split (the
  // split would change cache keys and hit patterns).
  {
    plan::PlanPtr plan = plan::MakeFilter(plan::MakeSeqScan("t", "t"),
                                          Analyze(mixed));
    ExecStats stats;
    Run(*plan, caching_on, &stats, &root);
    auto* filter = dynamic_cast<exec::FilterOp*>(root.get());
    ASSERT_NE(filter, nullptr);
    EXPECT_EQ(filter->vectorized_conjuncts(), 0u);
  }

  // Mixed conjunction with caching off: cheap prefix splits off.
  cost::CostParams caching_off;
  caching_off.predicate_caching = false;
  {
    plan::PlanPtr plan = plan::MakeFilter(plan::MakeSeqScan("t", "t"),
                                          Analyze(mixed));
    ExecStats stats;
    Run(*plan, ExecParams{}, &stats, &root, caching_off);
    auto* filter = dynamic_cast<exec::FilterOp*>(root.get());
    ASSERT_NE(filter, nullptr);
    EXPECT_EQ(filter->vectorized_conjuncts(), 1u);
  }

  // Expensive-first conjunction: the maximal cheap *prefix* is empty, so
  // nothing vectorizes (reordering would change invocation counts).
  const ExprPtr udf_first =
      expr::And(Call("costly", {Col("t", "key")}),
                Cmp(CompareOp::kLt, Col("t", "a"), Int(5)));
  {
    plan::PlanPtr plan = plan::MakeFilter(plan::MakeSeqScan("t", "t"),
                                          Analyze(udf_first));
    ExecStats stats;
    Run(*plan, ExecParams{}, &stats, &root, caching_off);
    auto* filter = dynamic_cast<exec::FilterOp*>(root.get());
    ASSERT_NE(filter, nullptr);
    EXPECT_EQ(filter->vectorized_conjuncts(), 0u);
  }

  // Vectorized off: row pipeline everywhere.
  ExecParams off;
  off.vectorized = false;
  {
    plan::PlanPtr plan = plan::MakeFilter(plan::MakeSeqScan("t", "t"),
                                          Analyze(cheap2));
    ExecStats stats;
    Run(*plan, off, &stats, &root);
    auto* filter = dynamic_cast<exec::FilterOp*>(root.get());
    ASSERT_NE(filter, nullptr);
    EXPECT_EQ(filter->vectorized_conjuncts(), 0u);
    EXPECT_FALSE(filter->provides_columns());
  }
}

TEST_F(VectorExecTest, CheapPredicateParityWithNulls) {
  // a has NULLs (key % 13 == 0): NULL rows must not pass, matching
  // EvalBool. x < 20 exercises the double path.
  const ExprPtr preds[] = {
      Cmp(CompareOp::kLt, Col("t", "a"), Int(5)),
      Cmp(CompareOp::kLt, Col("t", "x"), Const(Value(20.0))),
      Cmp(CompareOp::kGe, Col("t", "key"), Int(0)),   // all-pass
      Cmp(CompareOp::kLt, Col("t", "key"), Int(-1)),  // all-fail
  };
  for (const ExprPtr& e : preds) {
    plan::PlanPtr plan = plan::MakeFilter(plan::MakeSeqScan("t", "t"),
                                          Analyze(e));
    ExecParams on;
    ExecParams off;
    off.vectorized = false;
    ExecStats s_on, s_off;
    const auto rows_on = Run(*plan, on, &s_on);
    const auto rows_off = Run(*plan, off, &s_off);
    EXPECT_EQ(Canon(rows_on), Canon(rows_off));
  }

  // Empty upstream batches: an all-fail filter below a vectorizable filter.
  plan::PlanPtr empty_chain = plan::MakeFilter(
      plan::MakeFilter(plan::MakeSeqScan("t", "t"),
                       Analyze(Cmp(CompareOp::kLt, Col("t", "key"), Int(-1)))),
      Analyze(Cmp(CompareOp::kLt, Col("t", "a"), Int(5))));
  ExecStats stats;
  EXPECT_TRUE(Run(*empty_chain, ExecParams{}, &stats).empty());
}

TEST_F(VectorExecTest, MixedSplitKeepsExactInvocationCounts) {
  // Cheap prefix + expensive suffix, with NULLs in the cheap column: rows
  // whose cheap conjunct evaluates NULL must still invoke the UDF (SQL AND
  // does not short-circuit on NULL) yet never reach the output.
  const ExprPtr mixed = expr::And(Cmp(CompareOp::kLt, Col("t", "a"), Int(5)),
                                  Call("costly", {Col("t", "key")}));
  plan::PlanPtr plan = plan::MakeFilter(plan::MakeSeqScan("t", "t"),
                                        Analyze(mixed));
  for (int workers : {1, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    cost::CostParams knobs;
    knobs.predicate_caching = false;
    knobs.parallel_workers = workers;
    ExecParams off;
    off.vectorized = false;
    ExecParams on = off;
    on.vectorized = true;

    ExecStats s_off, s_on;
    const auto rows_off = Run(*plan, off, &s_off, nullptr, knobs);
    const auto rows_on = Run(*plan, on, &s_on, nullptr, knobs);

    EXPECT_EQ(Canon(rows_on), Canon(rows_off));
    ASSERT_TRUE(s_off.invocations.count("costly"));
    EXPECT_EQ(s_on.invocations, s_off.invocations);
    // The prefix actually pruned: fewer invocations than input rows, but
    // NULL-a rows (key % 13 == 0) still reached the UDF.
    const uint64_t calls = s_off.invocations.at("costly");
    EXPECT_LT(calls, 300u);
    EXPECT_GE(calls, 150u);  // ~5/10 pass + 24 NULL rows.
  }
}

TEST_F(VectorExecTest, CachedPredicateParity) {
  // With the memo engaged the conjunction is never split — results and
  // cache-bounded invocation counts still match the row engine exactly.
  const ExprPtr mixed = expr::And(Cmp(CompareOp::kLt, Col("t", "a"), Int(5)),
                                  Call("costly", {Col("t", "a")}));
  plan::PlanPtr plan = plan::MakeFilter(plan::MakeSeqScan("t", "t"),
                                        Analyze(mixed));
  ExecParams on;
  ExecParams off;
  off.vectorized = false;
  ExecStats s_on, s_off;
  const auto rows_on = Run(*plan, on, &s_on);
  const auto rows_off = Run(*plan, off, &s_off);
  EXPECT_EQ(Canon(rows_on), Canon(rows_off));
  EXPECT_EQ(s_on.invocations, s_off.invocations);
}

TEST_F(VectorExecTest, BatchSizeZeroIsClamped) {
  plan::PlanPtr plan = plan::MakeFilter(
      plan::MakeSeqScan("t", "t"),
      Analyze(Cmp(CompareOp::kLt, Col("t", "a"), Int(5))));
  ExecParams params;
  params.batch_size = 0;
  ExecStats stats;
  ExecParams sane;
  ExecStats sane_stats;
  EXPECT_EQ(Canon(Run(*plan, params, &stats)),
            Canon(Run(*plan, sane, &sane_stats)));
}

// ---------------------------------------------------------------------------
// Bloom-transfer hash parity on the columnar probe path.
// ---------------------------------------------------------------------------

/// The columnar probe path and the hash-join build hash native column cells
/// (ColumnBatch::HashCell) while the row probe path hashes Values — any
/// divergence falsely prunes probe rows (Bloom filters must never have
/// false negatives) or misses join partners. Keys include int64s that are
/// not exactly representable as doubles, the case where Value::Hash
/// switches hash functions.
TEST(VectorTransferTest, ColumnarProbeHashMatchesValueHash) {
  // Cell by cell, every native type plus NULLs and a boxed column.
  RowSchema schema({ColumnInfo{"t", "i", TypeId::kInt64},
                    ColumnInfo{"t", "d", TypeId::kDouble},
                    ColumnInfo{"t", "b", TypeId::kBool},
                    ColumnInfo{"t", "s", TypeId::kString},
                    ColumnInfo{"t", "x", TypeId::kInt64}});
  ColumnBatch cells(schema);
  const int64_t big = (int64_t{1} << 62) + 1;
  cells.AppendTuple(Tuple({Value(big), Value(3.0), Value(true),
                           Value("a string longer than sso"), Value(3.0)}));
  cells.AppendTuple(Tuple({Value(int64_t{3}), Value(-0.5), Value(false),
                           Value(""), Value(int64_t{3})}));
  cells.AppendTuple(Tuple({Value(), Value(), Value(), Value(), Value()}));
  ASSERT_TRUE(cells.column(4).boxed);
  for (size_t row = 0; row < cells.num_rows(); ++row) {
    for (size_t col = 0; col < cells.num_columns(); ++col) {
      EXPECT_EQ(cells.HashCell(col, row),
                static_cast<uint64_t>(cells.GetValue(col, row).Hash()))
          << "col " << col << " row " << row;
    }
  }

  storage::DiskManager disk;
  storage::BufferPool pool(&disk, 64);
  catalog::Catalog catalog(&pool);
  const int64_t base = (int64_t{1} << 62) + 1;  // Not double-representable.
  auto make = [&](const std::string& name, int64_t rows, int64_t stride) {
    auto table = catalog.CreateTable(
        name, {{"key", TypeId::kInt64}, {"grp", TypeId::kInt64}});
    ASSERT_TRUE(table.ok());
    for (int64_t i = 0; i < rows; ++i) {
      ASSERT_TRUE(
          (*table)
              ->Insert(Tuple({Value(base + i * stride), Value(i % 7)}))
              .ok());
    }
    ASSERT_TRUE((*table)->Analyze().ok());
  };
  make("r", 128, 1);  // Probe side: keys base..base+127.
  make("s", 16, 8);   // Build side: every 8th key.
  expr::TableBinding binding = {{"r", *catalog.GetTable("r")},
                                {"s", *catalog.GetTable("s")}};
  expr::PredicateAnalyzer analyzer(&catalog, binding);

  // Cheap filter above the probe scan pulls columns, so TransferProbe
  // narrows the selection vector via the columnar hash path.
  auto grp_pred = analyzer.Analyze(
      Cmp(CompareOp::kGe, Col("r", "grp"), Int(0)));
  ASSERT_TRUE(grp_pred.ok());
  auto join_pred = analyzer.Analyze(Eq(Col("r", "key"), Col("s", "key")));
  ASSERT_TRUE(join_pred.ok());
  plan::PlanPtr plan = plan::MakeJoin(
      plan::JoinMethod::kHash,
      plan::MakeFilter(plan::MakeSeqScan("r", "r"), *grp_pred),
      plan::MakeSeqScan("s", "s"), *join_pred);

  auto run = [&](bool vectorized) {
    exec::ExecContext ctx;
    ctx.catalog = &catalog;
    ctx.binding = binding;
    ctx.cost_params.predicate_transfer = true;
    ctx.params.vectorized = vectorized;
    ExecStats stats;
    auto rows = exec::ExecutePlan(*plan, &ctx, &stats);
    EXPECT_TRUE(rows.ok()) << rows.status();
    return Canon(*rows);
  };
  const auto on = run(true);
  const auto off = run(false);
  EXPECT_EQ(on.size(), 16u);  // No false negatives: all 16 matches found.
  EXPECT_EQ(on, off);
}

/// Keys at and beyond int64's edges: INT64_MAX rounds up to 2^63 as a
/// double, outside int64, so the exactness round trip in the hash must not
/// cast it back; the double column holds values no int64 can equal.
TEST(VectorTransferTest, HashCellMatchesValueHashAtInt64Edges) {
  RowSchema schema({ColumnInfo{"t", "i", TypeId::kInt64},
                    ColumnInfo{"t", "d", TypeId::kDouble}});
  const double inf = std::numeric_limits<double>::infinity();
  ColumnBatch cells(schema);
  cells.AppendTuple(
      Tuple({Value(std::numeric_limits<int64_t>::max()), Value(inf)}));
  cells.AppendTuple(
      Tuple({Value(std::numeric_limits<int64_t>::min()), Value(-inf)}));
  cells.AppendTuple(Tuple({Value(std::numeric_limits<int64_t>::max() - 1),
                           Value(std::nan(""))}));
  cells.AppendTuple(Tuple({Value(int64_t{-3}), Value(1e300)}));
  cells.AppendTuple(Tuple({Value(int64_t{0}), Value(-0x1p63)}));
  ASSERT_FALSE(cells.column(0).boxed);
  ASSERT_FALSE(cells.column(1).boxed);
  for (size_t row = 0; row < cells.num_rows(); ++row) {
    for (size_t col = 0; col < cells.num_columns(); ++col) {
      EXPECT_EQ(cells.HashCell(col, row),
                static_cast<uint64_t>(cells.GetValue(col, row).Hash()))
          << "col " << col << " row " << row;
    }
  }
  // INT64_MIN is exactly -2^63, so it still hashes like that double.
  EXPECT_EQ(Value(std::numeric_limits<int64_t>::min()).Hash(),
            Value(-0x1p63).Hash());
  EXPECT_EQ(Value(int64_t{3}).Hash(), Value(3.0).Hash());
}

// ---------------------------------------------------------------------------
// Pipeline breakers over column batches: HashJoin's build side, MergeJoin
// and Sort drain their inputs into column batches and order or bucket row
// positions. Their output must match the row semantics exactly, in order.
// ---------------------------------------------------------------------------

/// l (40 rows) and r (30 rows), each with
///   id  int64, unique, in insertion order;
///   k   int64 with duplicates and NULLs;
///   m   declared int64, but some rows store a double (3.0 equals 3, 2.5
///       equals nothing), so batches holding one box the column;
///   d   double with integral values (joins against int64 k) and NULLs;
///   pad string.
class LateMaterializeTest : public ::testing::Test {
 protected:
  LateMaterializeTest() : pool_(&disk_, 64), catalog_(&pool_) {
    MakeTable("l", 40, 9, 7, 11, 6);
    MakeTable("r", 30, 6, 8, 9, 5);
    binding_ = {{"l", *catalog_.GetTable("l")},
                {"r", *catalog_.GetTable("r")}};
    analyzer_ = std::make_unique<expr::PredicateAnalyzer>(&catalog_, binding_);
  }

  void MakeTable(const std::string& name, int64_t rows, int64_t k_mod,
                 int64_t null_mod, int64_t double_mod, int64_t d_mod) {
    auto table = catalog_.CreateTable(name, {{"id", TypeId::kInt64},
                                             {"k", TypeId::kInt64},
                                             {"m", TypeId::kInt64},
                                             {"d", TypeId::kDouble},
                                             {"pad", TypeId::kString}});
    ASSERT_TRUE(table.ok());
    for (int64_t i = 0; i < rows; ++i) {
      Value k = i % null_mod == 0 ? Value() : Value(i % k_mod);
      Value m = Value(i % 4);
      if (i % double_mod == 5) m = Value(static_cast<double>(i % 4));
      if (i % 13 == 12) m = Value(2.5);
      Value d = i % 10 == 3 ? Value()
                            : Value(static_cast<double>(i % d_mod));
      ASSERT_TRUE((*table)
                      ->Insert(Tuple({Value(i), std::move(k), std::move(m),
                                      std::move(d),
                                      Value(name + "-pad-" +
                                            std::to_string(i))}))
                      .ok());
    }
    ASSERT_TRUE((*table)->Analyze().ok());
  }

  expr::PredicateInfo Analyze(const ExprPtr& e) {
    auto info = analyzer_->Analyze(e);
    EXPECT_TRUE(info.ok()) << info.status();
    return *info;
  }

  struct Run {
    std::vector<std::string> rows;  // Serialized, in output order.
    storage::IoStats io;
    /// Bloom transfer of the plan's hash join, when one was built.
    size_t bloom_bits = 0;
    uint64_t bloom_bits_set = 0;
  };

  Run Execute(const plan::PlanNode& plan, bool vectorized,
              bool transfer = false) {
    exec::ExecContext ctx;
    ctx.catalog = &catalog_;
    ctx.binding = binding_;
    ctx.params.vectorized = vectorized;
    ctx.params.batch_size = 7;  // Every input spans several batches.
    ctx.cost_params.predicate_transfer = transfer;
    pool_.FlushAll();
    pool_.EvictAll();
    ExecStats stats;
    auto rows = exec::ExecutePlan(plan, &ctx, &stats);
    EXPECT_TRUE(rows.ok()) << rows.status();
    Run out;
    for (const Tuple& t : *rows) out.rows.push_back(t.Serialize());
    out.io = stats.io;
    for (const auto& t : ctx.all_transfers) {
      const exec::BloomFilter* filter = t->ActiveFilter();
      EXPECT_NE(filter, nullptr);
      if (filter == nullptr) continue;
      out.bloom_bits = filter->num_bits();
      out.bloom_bits_set = filter->BitsSet();
    }
    return out;
  }

  /// Runs `plan` with vectorized on and off and checks both against
  /// `expected`, in order, with the same page traffic.
  void ExpectRows(const plan::PlanNode& plan,
                  const std::vector<Tuple>& expected) {
    std::vector<std::string> want;
    for (const Tuple& t : expected) want.push_back(t.Serialize());
    const Run on = Execute(plan, true);
    const Run off = Execute(plan, false);
    EXPECT_EQ(on.rows, want);
    EXPECT_EQ(off.rows, want);
    EXPECT_EQ(on.io.sequential_reads, off.io.sequential_reads);
    EXPECT_EQ(on.io.random_reads, off.io.random_reads);
    EXPECT_EQ(on.io.buffer_hits, off.io.buffer_hits);
  }

  /// The table's rows in scan order.
  std::vector<Tuple> Rows(const std::string& name) {
    return ReadRows(*plan::MakeSeqScan(name, name));
  }
  std::vector<Tuple> ReadRows(const plan::PlanNode& plan) {
    exec::ExecContext ctx;
    ctx.catalog = &catalog_;
    ctx.binding = binding_;
    ctx.params.vectorized = false;
    auto rows = exec::ExecutePlan(plan, &ctx, nullptr);
    EXPECT_TRUE(rows.ok()) << rows.status();
    return std::move(rows).value();
  }

  static constexpr size_t kId = 0, kK = 1, kM = 2, kD = 3;

  /// Row semantics of HashJoin: outer order, each key's build rows in
  /// insertion order; NULL keys never match.
  static std::vector<Tuple> HashJoinRef(const std::vector<Tuple>& outer,
                                        const std::vector<Tuple>& inner,
                                        size_t ok, size_t ik) {
    std::vector<Tuple> out;
    for (const Tuple& o : outer) {
      if (o.Get(ok).is_null()) continue;
      for (const Tuple& i : inner) {
        if (!i.Get(ik).is_null() && o.Get(ok).Compare(i.Get(ik)) == 0) {
          out.push_back(Tuple::Concat(o, i));
        }
      }
    }
    return out;
  }

  /// Stable sort on one column under Value::Compare.
  static std::vector<Tuple> SortRef(std::vector<Tuple> rows, size_t key) {
    std::stable_sort(rows.begin(), rows.end(),
                     [key](const Tuple& a, const Tuple& b) {
                       return a.Get(key).Compare(b.Get(key)) < 0;
                     });
    return rows;
  }

  /// Row semantics of MergeJoin: both inputs stably sorted (NULL keys
  /// dropped), each outer row joined with its inner key group in order.
  static std::vector<Tuple> MergeJoinRef(std::vector<Tuple> outer,
                                         std::vector<Tuple> inner, size_t ok,
                                         size_t ik) {
    auto drop_nulls = [](std::vector<Tuple>* rows, size_t key) {
      rows->erase(std::remove_if(rows->begin(), rows->end(),
                                 [key](const Tuple& t) {
                                   return t.Get(key).is_null();
                                 }),
                  rows->end());
    };
    drop_nulls(&outer, ok);
    drop_nulls(&inner, ik);
    return HashJoinRef(SortRef(outer, ok), SortRef(inner, ik), ok, ik);
  }

  plan::PlanPtr Join(plan::JoinMethod method, plan::PlanPtr outer,
                     plan::PlanPtr inner, const std::string& outer_col,
                     const std::string& inner_col) {
    return plan::MakeJoin(method, std::move(outer), std::move(inner),
                          Analyze(Eq(Col("l", outer_col),
                                     Col("r", inner_col))));
  }

  storage::DiskManager disk_;
  storage::BufferPool pool_;
  catalog::Catalog catalog_;
  expr::TableBinding binding_;
  std::unique_ptr<expr::PredicateAnalyzer> analyzer_;
};

TEST_F(LateMaterializeTest, HashJoinMatchesRowSemantics) {
  const std::vector<Tuple> l = Rows("l");
  const std::vector<Tuple> r = Rows("r");
  const std::pair<const char*, size_t> cols[] = {
      {"k", kK}, {"m", kM}, {"d", kD}};
  // Every pairing: NULL and duplicate int64 keys, the boxed column on
  // either side, and int64 against double both ways.
  for (const auto& [oc, o] : cols) {
    for (const auto& [ic, i] : cols) {
      SCOPED_TRACE(std::string("l.") + oc + " = r." + ic);
      const std::vector<Tuple> expected = HashJoinRef(l, r, o, i);
      ExpectRows(*Join(plan::JoinMethod::kHash, plan::MakeSeqScan("l", "l"),
                       plan::MakeSeqScan("r", "r"), oc, ic),
                 expected);
    }
  }
  // Not every pairing may come out empty.
  EXPECT_FALSE(HashJoinRef(l, r, kK, kD).empty());
  EXPECT_FALSE(HashJoinRef(l, r, kM, kM).empty());
}

TEST_F(LateMaterializeTest, HashJoinBuildUnderVectorizedFilter) {
  // The build side's batches arrive with partial selection vectors.
  const expr::PredicateInfo keep = Analyze(
      Cmp(CompareOp::kLt, Col("r", "d"), Const(Value(4.0))));
  const std::vector<Tuple> l = Rows("l");
  const std::vector<Tuple> r = ReadRows(
      *plan::MakeFilter(plan::MakeSeqScan("r", "r"), keep));
  ASSERT_LT(r.size(), 30u);
  ExpectRows(*Join(plan::JoinMethod::kHash, plan::MakeSeqScan("l", "l"),
                   plan::MakeFilter(plan::MakeSeqScan("r", "r"), keep), "k",
                   "k"),
             HashJoinRef(l, r, kK, kK));
}

TEST_F(LateMaterializeTest, MergeJoinMatchesRowSemantics) {
  const std::vector<Tuple> l = Rows("l");
  const std::vector<Tuple> r = Rows("r");
  const std::pair<const char*, size_t> cols[] = {
      {"k", kK}, {"m", kM}, {"d", kD}};
  for (const auto& [oc, o] : cols) {
    for (const auto& [ic, i] : cols) {
      SCOPED_TRACE(std::string("l.") + oc + " = r." + ic);
      ExpectRows(*Join(plan::JoinMethod::kMerge, plan::MakeSeqScan("l", "l"),
                       plan::MakeSeqScan("r", "r"), oc, ic),
                 MergeJoinRef(l, r, o, i));
    }
  }
}

TEST_F(LateMaterializeTest, SortIsStableWithNullsFirst) {
  const std::vector<Tuple> l = Rows("l");
  const std::pair<const char*, size_t> cols[] = {
      {"l.k", kK}, {"l.m", kM}, {"l.d", kD}, {"l.pad", 4}};
  for (const auto& [name, key] : cols) {
    SCOPED_TRACE(name);
    ExpectRows(*plan::MakeSort(plan::MakeSeqScan("l", "l"), name),
               SortRef(l, key));
  }
}

TEST_F(LateMaterializeTest, TransferFilterIsUnchanged) {
  // The Bloom filter is sized on the distinct non-NULL build keys and
  // filled with their Value::Hash, whichever way the build side drains.
  // l builds (40 rows, few distinct keys, so sizing on rows would double
  // the filter); r probes.
  const std::vector<Tuple> l = Rows("l");
  const std::vector<Tuple> r = Rows("r");
  for (const auto& [ic, i] : {std::pair<const char*, size_t>{"k", kK},
                              std::pair<const char*, size_t>{"m", kM}}) {
    SCOPED_TRACE(ic);
    plan::PlanPtr plan = plan::MakeJoin(
        plan::JoinMethod::kHash, plan::MakeSeqScan("r", "r"),
        plan::MakeSeqScan("l", "l"), Analyze(Eq(Col("r", "k"), Col("l", ic))));
    std::vector<Value> distinct;
    for (const Tuple& t : l) {
      const Value& v = t.Get(i);
      if (v.is_null()) continue;
      if (std::none_of(distinct.begin(), distinct.end(),
                       [&v](const Value& seen) {
                         return seen == v && seen.Hash() == v.Hash();
                       })) {
        distinct.push_back(v);
      }
    }
    exec::BloomFilter expected(distinct.size());
    for (const Value& v : distinct) {
      expected.InsertHash(static_cast<uint64_t>(v.Hash()));
    }
    ASSERT_LT(expected.num_bits(), exec::BloomFilter(l.size()).num_bits());
    const Run on = Execute(*plan, true, /*transfer=*/true);
    const Run off = Execute(*plan, false, /*transfer=*/true);
    EXPECT_EQ(on.bloom_bits, expected.num_bits());
    EXPECT_EQ(off.bloom_bits, expected.num_bits());
    EXPECT_EQ(on.bloom_bits_set, expected.BitsSet());
    EXPECT_EQ(off.bloom_bits_set, expected.BitsSet());
    std::vector<std::string> want;
    for (const Tuple& t : HashJoinRef(r, l, kK, i)) {
      want.push_back(t.Serialize());
    }
    EXPECT_FALSE(want.empty());
    EXPECT_EQ(on.rows, want);
    EXPECT_EQ(off.rows, want);
  }
}

TEST_F(LateMaterializeTest, HashJoinReopenedAsNestLoopInner) {
  // Each outer row re-opens the hash join, which drains and buckets its
  // build side again into reused batches.
  plan::PlanPtr inner_join =
      Join(plan::JoinMethod::kHash, plan::MakeSeqScan("l", "l"),
           plan::MakeSeqScan("r", "r"), "k", "k");
  // The outer copy of l needs its own alias.
  binding_["o"] = *catalog_.GetTable("l");
  analyzer_ = std::make_unique<expr::PredicateAnalyzer>(&catalog_, binding_);
  const expr::PredicateInfo few_o =
      Analyze(Cmp(CompareOp::kLt, Col("o", "id"), Int(3)));
  plan::PlanPtr plan = plan::MakeJoin(
      plan::JoinMethod::kNestLoop,
      plan::MakeFilter(plan::MakeSeqScan("o", "l"), few_o),
      std::move(inner_join), expr::PredicateInfo{});
  const std::vector<Tuple> inner =
      HashJoinRef(Rows("l"), Rows("r"), kK, kK);
  std::vector<Tuple> expected;
  for (const Tuple& o : Rows("l")) {
    if (o.Get(kId).AsInt64() >= 3) continue;
    for (const Tuple& i : inner) expected.push_back(Tuple::Concat(o, i));
  }
  ASSERT_FALSE(inner.empty());
  ExpectRows(*plan, expected);
}

// ---------------------------------------------------------------------------
// Q1-Q5 end-to-end parity suite.
// ---------------------------------------------------------------------------

struct ParityRun {
  std::vector<std::string> rows;
  std::unordered_map<std::string, uint64_t> invocations;
  storage::IoStats io;
};

/// Optimizes (kPushDown — vectorization must not depend on placement) and
/// executes `spec` on `db` from a cold pool under `cost_params` and
/// `params`, returning canonical rows, the exact UDF invocation counters
/// and the page traffic.
ParityRun ExecuteCold(workload::Database* db, const plan::QuerySpec& spec,
                      const cost::CostParams& cost_params,
                      const ExecParams& params) {
  optimizer::Optimizer opt(&db->catalog(), cost_params);
  auto result = opt.Optimize(spec, Algorithm::kPushDown);
  EXPECT_TRUE(result.ok()) << result.status();

  exec::ExecContext ctx;
  ctx.catalog = &db->catalog();
  ctx.params = params;
  ctx.cost_params = cost_params;
  for (const plan::TableRef& ref : spec.tables) {
    ctx.binding[ref.alias] = *db->catalog().GetTable(ref.table_name);
  }
  db->pool().FlushAll();
  db->pool().EvictAll();
  types::RowSchema schema;
  ExecStats stats;
  auto rows = exec::ExecutePlan(*result->plan, &ctx, &stats, &schema);
  EXPECT_TRUE(rows.ok()) << rows.status();
  return {workload::CanonicalResults(*rows, schema), stats.invocations,
          stats.io};
}

/// Vectorized on and off must agree on rows, invocations and page traffic
/// (sequential and random reads, and buffer hits, which count pins).
void ExpectParity(const ParityRun& on, const ParityRun& off) {
  EXPECT_EQ(on.rows, off.rows);
  EXPECT_EQ(on.invocations, off.invocations);
  EXPECT_EQ(on.io.sequential_reads, off.io.sequential_reads);
  EXPECT_EQ(on.io.random_reads, off.io.random_reads);
  EXPECT_EQ(on.io.buffer_hits, off.io.buffer_hits);
}

class VectorParityTest : public ::testing::Test {
 protected:
  VectorParityTest() {
    config_.scale = 100;
    config_.table_numbers = {1, 3, 6, 7, 9, 10};
    EXPECT_TRUE(workload::LoadBenchmarkDatabase(&db_, config_).ok());
    EXPECT_TRUE(workload::RegisterBenchmarkFunctions(&db_).ok());
  }

  workload::Database db_;
  workload::BenchmarkConfig config_;
};

TEST_F(VectorParityTest, QueriesMatchAcrossVectorWorkersTransfer) {
  for (const std::string id : {"Q1", "Q2", "Q3", "Q4", "Q5"}) {
    auto spec = workload::GetBenchmarkQuery(db_, config_, id);
    ASSERT_TRUE(spec.ok()) << spec.status();
    for (bool transfer : {false, true}) {
      for (int workers : {1, 4}) {
        SCOPED_TRACE(id + " transfer=" + std::to_string(transfer) +
                     " workers=" + std::to_string(workers));
        cost::CostParams cost_params;
        cost_params.predicate_transfer = transfer;
        cost_params.parallel_workers = workers;
        ExecParams off_params;
        off_params.vectorized = false;
        ExecParams on_params = off_params;
        on_params.vectorized = true;

        // Byte-identical result sets, exact-equal invocation counters and
        // the same page traffic.
        ExpectParity(ExecuteCold(&db_, *spec, cost_params, on_params),
                     ExecuteCold(&db_, *spec, cost_params, off_params));
      }
    }
  }
}

/// A scan spanning several batches under a filter whose expensive suffix
/// fetches pages (a correlated IN subquery), in a pool smaller than the
/// tables: a pin the scan held across calls would change what the pool
/// evicts on one path only.
TEST(VectorPoolParityTest, MultiBatchScanUnderPageFetchingSuffix) {
  workload::Database db(8);
  workload::BenchmarkConfig config;
  config.scale = 200;
  config.table_numbers = {3, 6};
  ASSERT_TRUE(workload::LoadBenchmarkDatabase(&db, config).ok());
  cost::CostParams cost_params;
  cost_params.predicate_caching = false;
  // Each run rewrites the statement afresh: the subquery's value sets are
  // memoized per rewrite, so a shared one would run the subquery only once.
  auto run = [&](bool vectorized) {
    auto spec = subquery::ParseBindRewrite(
        "SELECT t3.a FROM t3 WHERE t3.a < 500 AND t3.u10 IN "
        "(SELECT u10 FROM t6 WHERE t6.a10 = t3.a10)",
        &db.catalog());
    EXPECT_TRUE(spec.ok()) << spec.status();
    ExecParams params;
    params.vectorized = vectorized;
    params.batch_size = 64;
    ParityRun run = ExecuteCold(&db, *spec, cost_params, params);
    // Each rewrite registers its own function name; compare the counts.
    uint64_t calls = 0;
    for (const auto& [name, n] : run.invocations) calls += n;
    run.invocations = {{"subquery", calls}};
    return run;
  };
  const ParityRun on = run(true);
  const ParityRun off = run(false);
  EXPECT_FALSE(on.rows.empty());
  EXPECT_GT(on.io.random_reads, 0u);
  ExpectParity(on, off);
}

}  // namespace
}  // namespace ppp

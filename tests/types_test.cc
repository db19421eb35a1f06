#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "stats/hyperloglog.h"
#include "types/column_batch.h"
#include "types/row_schema.h"
#include "types/tuple.h"
#include "types/value.h"

namespace ppp::types {
namespace {

TEST(ValueTest, DefaultIsNull) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.type(), TypeId::kNull);
}

TEST(ValueTest, TypedAccessors) {
  EXPECT_EQ(Value(int64_t{42}).AsInt64(), 42);
  EXPECT_DOUBLE_EQ(Value(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value("hi").AsString(), "hi");
  EXPECT_TRUE(Value(true).AsBool());
}

TEST(ValueTest, NumericCrossTypeComparison) {
  EXPECT_EQ(Value(int64_t{3}).Compare(Value(3.0)), 0);
  EXPECT_LT(Value(int64_t{2}).Compare(Value(2.5)), 0);
  EXPECT_GT(Value(3.5).Compare(Value(int64_t{3})), 0);
}

TEST(ValueTest, NullSortsFirst) {
  EXPECT_LT(Value().Compare(Value(int64_t{-100})), 0);
  EXPECT_GT(Value(int64_t{-100}).Compare(Value()), 0);
  EXPECT_EQ(Value().Compare(Value()), 0);
}

TEST(ValueTest, StringComparison) {
  EXPECT_LT(Value("abc").Compare(Value("abd")), 0);
  EXPECT_EQ(Value("abc").Compare(Value("abc")), 0);
  EXPECT_GT(Value("b").Compare(Value("a")), 0);
}

TEST(ValueTest, HeterogeneousComparisonIsDeterministic) {
  const int c1 = Value("x").Compare(Value(int64_t{5}));
  const int c2 = Value(int64_t{5}).Compare(Value("x"));
  EXPECT_NE(c1, 0);
  EXPECT_EQ(c1, -c2);
}

TEST(ValueTest, HashConsistentWithEquality) {
  // 3 == 3.0, so their hashes must agree.
  EXPECT_EQ(Value(int64_t{3}), Value(3.0));
  EXPECT_EQ(Value(int64_t{3}).Hash(), Value(3.0).Hash());
  EXPECT_EQ(Value("s").Hash(), Value("s").Hash());
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value().ToString(), "NULL");
  EXPECT_EQ(Value(int64_t{7}).ToString(), "7");
  EXPECT_EQ(Value("x").ToString(), "'x'");
  EXPECT_EQ(Value(true).ToString(), "true");
}

TEST(ValueTest, IntegerComparisonIsExactAtLargeMagnitude) {
  // Doubles cannot distinguish these; int64 comparison must.
  const int64_t a = (int64_t{1} << 62) + 1;
  const int64_t b = int64_t{1} << 62;
  EXPECT_GT(Value(a).Compare(Value(b)), 0);
}

/// A quiet NaN with the given sign and low payload bits.
double NaNWithPayload(bool negative, uint64_t payload) {
  uint64_t bits = 0x7FF8000000000000ULL | (payload & 0xFFFFFFFFFFFULL);
  if (negative) bits |= 0x8000000000000000ULL;
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

TEST(ValueTest, NaNHasOnePlaceInTheOrder) {
  const double inf = std::numeric_limits<double>::infinity();
  const Value nan(std::nan(""));
  const Value other_nan(NaNWithPayload(true, 0x1234));
  // NaN equals NaN, whatever its payload, and sorts above every number.
  EXPECT_EQ(nan.Compare(other_nan), 0);
  EXPECT_EQ(nan.Compare(nan), 0);
  for (const Value& number :
       {Value(inf), Value(-inf), Value(0.0), Value(-0.0), Value(3.0),
        Value(int64_t{3}), Value(int64_t{-7}), Value(true),
        Value(std::numeric_limits<double>::max())}) {
    SCOPED_TRACE(number.ToString());
    EXPECT_EQ(nan.Compare(number), 1);
    EXPECT_EQ(number.Compare(nan), -1);
    EXPECT_EQ(other_nan.Compare(number), 1);
  }
  // NULL still sorts first, and a string still orders by type id.
  EXPECT_EQ(Value().Compare(nan), -1);
  EXPECT_EQ(nan.Compare(Value("x")), Value(1.0).Compare(Value("x")));
  // Equality is transitive again: NaN == 3.0 and NaN == 4 no longer hold.
  EXPECT_NE(nan, Value(3.0));
  EXPECT_NE(nan, Value(int64_t{4}));
  EXPECT_EQ(Value(0.0).Compare(Value(-0.0)), 0);
}

TEST(ValueTest, NaNPayloadsHashAlike) {
  const std::vector<double> nans = {
      std::nan(""), -std::nan(""), NaNWithPayload(false, 1),
      NaNWithPayload(true, 0xBEEF), std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::signaling_NaN()};
  const RowSchema schema({ColumnInfo{"t", "x", TypeId::kDouble}});
  ColumnBatch batch(schema);
  for (const double d : nans) batch.AppendTuple(Tuple({Value(d)}));
  batch.AppendTuple(Tuple({Value(0.0)}));
  batch.AppendTuple(Tuple({Value(-0.0)}));
  for (size_t i = 0; i < nans.size(); ++i) {
    SCOPED_TRACE(i);
    ASSERT_TRUE(std::isnan(nans[i]));
    EXPECT_EQ(Value(nans[i]).Hash(), Value(nans[0]).Hash());
    EXPECT_EQ(batch.HashCell(0, i),
              static_cast<uint64_t>(Value(nans[0]).Hash()));
    EXPECT_EQ(stats::StableValueHash(Value(nans[i])),
              stats::StableValueHash(Value(nans[0])));
  }
  // -0.0 == 0.0 under Compare, so they hash alike too.
  const size_t zero = nans.size();
  EXPECT_EQ(Value(-0.0).Hash(), Value(0.0).Hash());
  EXPECT_EQ(batch.HashCell(0, zero), batch.HashCell(0, zero + 1));
  EXPECT_EQ(stats::StableValueHash(Value(-0.0)),
            stats::StableValueHash(Value(0.0)));
}

/// Value::Compare's numeric order written out independently, through long
/// double (exact for every int64 and every double here): NaN equals NaN
/// and sorts above every other number; a bool is the int 0 or 1.
int ExactModelCompare(const Value& a, const Value& b) {
  static_assert(std::numeric_limits<long double>::digits >= 64);
  const auto num = [](const Value& v) -> long double {
    switch (v.type()) {
      case TypeId::kBool:
        return v.AsBool() ? 1 : 0;
      case TypeId::kInt64:
        return static_cast<long double>(v.AsInt64());
      default:
        return v.AsDouble();
    }
  };
  const long double x = num(a);
  const long double y = num(b);
  if (std::isnan(x) || std::isnan(y)) {
    return std::isnan(x) == std::isnan(y) ? 0 : (std::isnan(x) ? 1 : -1);
  }
  return x < y ? -1 : (x > y ? 1 : 0);
}

TEST(ValueTest, Int64AgainstDoubleComparesExactly) {
  const int64_t p53 = int64_t{1} << 53;
  // 2^53 + 1 has no double: a rounding cast would make it equal to the
  // double 2^53, which equals the int 2^53, which is less than 2^53 + 1.
  EXPECT_EQ(Value(p53 + 1).Compare(Value(0x1p53)), 1);
  EXPECT_EQ(Value(0x1p53).Compare(Value(p53 + 1)), -1);
  EXPECT_EQ(Value(0x1p53).Compare(Value(p53)), 0);
  EXPECT_EQ(Value(p53 + 1).Compare(Value(p53)), 1);

  const double inf = std::numeric_limits<double>::infinity();
  const int64_t max = std::numeric_limits<int64_t>::max();
  const int64_t min = std::numeric_limits<int64_t>::min();
  const std::vector<Value> values = {
      Value(p53 - 1),      Value(p53),          Value(p53 + 1),
      Value(p53 + 2),      Value(0x1p53 - 1),   Value(0x1p53),
      Value(0x1p53 + 2),   Value(0x1p53 + 4),   Value(-(p53 + 1)),
      Value(-0x1p53),      Value(-p53),         Value(max),
      Value(max - 1),      Value(min),          Value(min + 1),
      Value(0x1p63),       Value(-0x1p63),      Value(0x1p63 - 1024),
      Value(int64_t{1}),   Value(1.0),          Value(true),
      Value(false),        Value(int64_t{0}),   Value(-0.0),
      Value(0.5),          Value(-0.5),         Value(inf),
      Value(-inf),         Value(std::nan("")), Value(int64_t{-1}),
  };
  const RowSchema schema({ColumnInfo{"t", "x", TypeId::kInt64}});
  ColumnBatch batch(schema);
  for (const Value& v : values) batch.AppendTuple(Tuple({v}));
  for (size_t i = 0; i < values.size(); ++i) {
    for (size_t j = 0; j < values.size(); ++j) {
      const Value& a = values[i];
      const Value& b = values[j];
      SCOPED_TRACE(a.ToString() + " vs " + b.ToString());
      ASSERT_EQ(a.Compare(b), ExactModelCompare(a, b));
      if (a.Compare(b) != 0) continue;
      EXPECT_EQ(a.Hash(), b.Hash());
      EXPECT_EQ(batch.HashCell(0, i), batch.HashCell(0, j));
      EXPECT_EQ(stats::StableValueHash(a), stats::StableValueHash(b));
    }
  }
  // The model is a total order, so matching it everywhere makes Compare
  // transitive; check that directly too.
  for (const Value& a : values) {
    for (const Value& b : values) {
      for (const Value& c : values) {
        if (a.Compare(b) <= 0 && b.Compare(c) <= 0) {
          EXPECT_LE(a.Compare(c), 0) << a.ToString() << " " << b.ToString()
                                     << " " << c.ToString();
        }
      }
    }
  }
  // The boxed cells hash as Value::Hash does.
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(batch.HashCell(0, i), static_cast<uint64_t>(values[i].Hash()))
        << values[i].ToString();
  }
}

TEST(TupleTest, RoundTripAllTypes) {
  Tuple t({Value(int64_t{-5}), Value(3.25), Value("hello"), Value(true),
           Value()});
  auto back = Tuple::Deserialize(t.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, t);
}

TEST(TupleTest, EmptyTupleRoundTrip) {
  Tuple t;
  auto back = Tuple::Deserialize(t.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->NumValues(), 0u);
}

TEST(TupleTest, DeserializeRejectsTruncatedHeader) {
  EXPECT_FALSE(Tuple::Deserialize("xx").ok());
}

TEST(TupleTest, DeserializeRejectsTruncatedPayload) {
  Tuple t({Value(int64_t{1}), Value("long string payload")});
  std::string bytes = t.Serialize();
  bytes.resize(bytes.size() - 4);
  EXPECT_FALSE(Tuple::Deserialize(bytes).ok());
}

TEST(TupleTest, Concat) {
  Tuple a({Value(int64_t{1})});
  Tuple b({Value(int64_t{2}), Value("x")});
  Tuple c = Tuple::Concat(a, b);
  ASSERT_EQ(c.NumValues(), 3u);
  EXPECT_EQ(c.Get(0).AsInt64(), 1);
  EXPECT_EQ(c.Get(2).AsString(), "x");
}

TEST(TupleTest, SerializeProjectionMatchesSerializeOfProjectedTuple) {
  const Tuple left({Value(int64_t{-5}), Value(), Value(3.25)});
  const Tuple right({Value(true), Value("hello"), Value(int64_t{7})});
  const Tuple joined = Tuple::Concat(left, right);
  const std::vector<std::vector<size_t>> projections = {
      {}, {1}, {4, 0}, {2, 3}, {0, 1, 2, 3, 4, 5}, {5, 5, 1}};
  std::string key = "stale bytes";  // Overwritten, not appended to.
  for (const std::vector<size_t>& indexes : projections) {
    std::vector<Value> projected;
    for (const size_t i : indexes) projected.push_back(joined.Get(i));
    const std::string expected = Tuple(projected).Serialize();
    joined.SerializeProjection(indexes, &key);
    EXPECT_EQ(key, expected);
  }
}

TEST(ColumnKeyTest, CellKeyMatchesSerializeProjection) {
  // The §5.1 key written from column cells must be the bytes
  // Tuple::SerializeProjection gives for the built row, for every cell
  // type and on either side of the outer/inner split.
  const std::string long_text(40, 'k');  // Longer than the SSO buffer.
  const RowSchema inner_schema({ColumnInfo{"i", "a", TypeId::kInt64},
                                ColumnInfo{"i", "x", TypeId::kDouble},
                                ColumnInfo{"i", "b", TypeId::kBool},
                                ColumnInfo{"i", "s", TypeId::kString},
                                ColumnInfo{"i", "n", TypeId::kInt64},
                                ColumnInfo{"i", "box", TypeId::kInt64}});
  const std::vector<Tuple> inner_rows = {
      Tuple({Value(int64_t{7}), Value(2.5), Value(true), Value(long_text),
             Value(), Value(int64_t{5})}),
      Tuple({Value(int64_t{-1} << 40), Value(-0.0), Value(false), Value(""),
             Value(), Value(long_text + "boxed")}),
      Tuple({Value(), Value(std::nan("")), Value(), Value(),
             Value(int64_t{3}), Value()}),
  };
  const Tuple left({Value(int64_t{-5}), Value(), Value(3.25), Value(true),
                    Value(long_text)});
  const size_t width = left.NumValues() + inner_schema.NumColumns();
  std::vector<std::vector<size_t>> projections = {
      {}, {0}, {6}, {10}, {4, 8}, {9, 1, 5}, {7, 7, 2}, {3, 6, 8, 9, 10}};
  std::vector<size_t> all(width);
  for (size_t i = 0; i < width; ++i) all[i] = i;
  projections.push_back(all);
  projections.emplace_back(all.rbegin(), all.rend());

  // One batch built from Tuples, one decoded from the storage bytes.
  ColumnBatch from_tuples(inner_schema);
  ColumnBatch from_bytes(inner_schema);
  for (const Tuple& row : inner_rows) {
    from_tuples.AppendTuple(row);
    ASSERT_TRUE(from_bytes.AppendSerialized(row.Serialize()).ok());
  }
  for (const ColumnBatch* batch : {&from_tuples, &from_bytes}) {
    ASSERT_TRUE(batch->column(5).boxed);
    ASSERT_FALSE(batch->column(0).boxed);
    ASSERT_FALSE(batch->column(3).boxed);
    std::string key = "stale bytes";  // Overwritten, not appended to.
    std::string expected;
    for (size_t row = 0; row < inner_rows.size(); ++row) {
      const Tuple joined = Tuple::Concat(left, inner_rows[row]);
      EXPECT_EQ(batch->JoinRow(left, row), joined);
      for (const std::vector<size_t>& indexes : projections) {
        SCOPED_TRACE(testing::Message() << "row " << row << ", "
                                        << indexes.size() << " indexes");
        std::vector<Value> projected;
        for (const size_t i : indexes) projected.push_back(joined.Get(i));
        joined.SerializeProjection(indexes, &expected);
        EXPECT_EQ(expected, Tuple(projected).Serialize());
        batch->SerializeProjection(left, row, indexes, &key);
        EXPECT_EQ(key, expected);
      }
      // A single-input filter keys on the batch row alone.
      for (const size_t col : {size_t{0}, size_t{3}, size_t{5}}) {
        inner_rows[row].SerializeProjection({col, 1}, &expected);
        batch->SerializeProjection(Tuple(), row, {col, 1}, &key);
        EXPECT_EQ(key, expected);
      }
    }
  }
}

TEST(TupleTest, ToString) {
  Tuple t({Value(int64_t{1}), Value()});
  EXPECT_EQ(t.ToString(), "(1, NULL)");
}

TEST(RowSchemaTest, FindQualified) {
  RowSchema schema({{"t1", "a", TypeId::kInt64},
                    {"t2", "a", TypeId::kInt64},
                    {"t2", "b", TypeId::kString}});
  EXPECT_EQ(schema.FindColumn("t1", "a"), std::optional<size_t>(0));
  EXPECT_EQ(schema.FindColumn("t2", "a"), std::optional<size_t>(1));
  EXPECT_EQ(schema.FindColumn("t2", "b"), std::optional<size_t>(2));
  EXPECT_FALSE(schema.FindColumn("t3", "a").has_value());
}

TEST(RowSchemaTest, UnqualifiedAmbiguityFails) {
  RowSchema schema({{"t1", "a", TypeId::kInt64},
                    {"t2", "a", TypeId::kInt64}});
  EXPECT_FALSE(schema.FindColumn("", "a").has_value());  // Ambiguous.
}

TEST(RowSchemaTest, UnqualifiedUniqueSucceeds) {
  RowSchema schema({{"t1", "a", TypeId::kInt64},
                    {"t2", "b", TypeId::kInt64}});
  EXPECT_EQ(schema.FindColumn("", "b"), std::optional<size_t>(1));
}

TEST(RowSchemaTest, Concat) {
  RowSchema a({{"t1", "x", TypeId::kInt64}});
  RowSchema b({{"t2", "y", TypeId::kString}});
  RowSchema c = RowSchema::Concat(a, b);
  ASSERT_EQ(c.NumColumns(), 2u);
  EXPECT_EQ(c.Column(1).QualifiedName(), "t2.y");
}

TEST(RowSchemaTest, ToString) {
  RowSchema schema({{"t", "c", TypeId::kInt64}});
  EXPECT_EQ(schema.ToString(), "t.c:INT64");
}

}  // namespace
}  // namespace ppp::types

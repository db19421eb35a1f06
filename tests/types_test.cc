#include <gtest/gtest.h>

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
    // Pair form, straight from the two halves.
    Tuple::SerializeProjection(left, right, indexes, &key);
    EXPECT_EQ(key, expected);
    // Single-row form: the whole row on the left.
    Tuple::SerializeProjection(joined, Tuple(), indexes, &key);
    EXPECT_EQ(key, expected);
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

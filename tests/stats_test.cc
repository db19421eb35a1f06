// Statistics subsystem tests: equi-depth histogram error bounds on
// uniform, Zipfian and heavy-duplicate data; HyperLogLog NDV accuracy;
// sampling reproducibility (fixed seed + PPP_STATS_SEED override); the
// feedback > stats > declared provenance ladder in PredicateAnalyzer;
// concurrent ANALYZE against running queries; result invariance of the
// benchmark queries with statistics on/off; and bit-exactness of both
// ANALYZE paths against the hash-map reference they replaced.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "catalog/catalog.h"
#include "common/random.h"
#include "exec/executor.h"
#include "expr/predicate.h"
#include "obs/profiler.h"
#include "optimizer/optimizer.h"
#include "parser/binder.h"
#include "parser/parser.h"
#include "serve/session.h"
#include "stats/collector.h"
#include "stats/estimator.h"
#include "stats/histogram.h"
#include "stats/hyperloglog.h"
#include "stats/value_runs.h"
#include "workload/database.h"
#include "workload/measurement.h"
#include "workload/queries.h"
#include "workload/schema_gen.h"

namespace ppp {
namespace {

using types::TypeId;
using types::Value;

// ---- Equi-depth histogram error bounds -----------------------------------

std::vector<Value> ToValues(const std::vector<int64_t>& data) {
  std::vector<Value> values;
  values.reserve(data.size());
  for (int64_t x : data) values.emplace_back(x);
  return values;
}

double ExactFractionBelow(const std::vector<int64_t>& data, int64_t v,
                          bool inclusive) {
  size_t count = 0;
  for (int64_t x : data) count += inclusive ? (x <= v) : (x < v);
  return static_cast<double>(count) / static_cast<double>(data.size());
}

double ExactFractionEqual(const std::vector<int64_t>& data, int64_t v) {
  size_t count = 0;
  for (int64_t x : data) count += (x == v);
  return static_cast<double>(count) / static_cast<double>(data.size());
}

/// Checks FractionBelow against the exact empirical fraction at every
/// probe, in both inclusive modes. An equi-depth histogram built over the
/// full data set is off by at most ~2 bucket masses (the probe's bucket
/// plus interpolation error), more when duplicates force uneven buckets —
/// callers pass a bound matched to their data.
void ExpectRangeWithin(const stats::EquiDepthHistogram& h,
                       const std::vector<int64_t>& data,
                       const std::vector<int64_t>& probes, double bound) {
  for (int64_t v : probes) {
    for (bool inclusive : {false, true}) {
      const double est = h.FractionBelow(Value(v), inclusive);
      const double exact = ExactFractionBelow(data, v, inclusive);
      EXPECT_NEAR(est, exact, bound)
          << "v=" << v << " inclusive=" << inclusive;
    }
  }
}

TEST(HistogramTest, UniformDataRangeWithinEquiDepthBound) {
  common::Random rng(1);
  std::vector<int64_t> data;
  data.reserve(8192);
  for (int i = 0; i < 8192; ++i) {
    data.push_back(static_cast<int64_t>(rng.NextUint64(4096)));
  }
  const auto h = stats::EquiDepthHistogram::Build(ToValues(data), 64);
  ASSERT_FALSE(h.empty());
  EXPECT_LE(h.buckets().size(), 64u);
  EXPECT_EQ(h.total_count(), 8192u);

  // 2 bucket masses = 2/64; uniform data has no heavy runs, so the bound
  // holds with room to spare.
  ExpectRangeWithin(h, data, {0, 1, 500, 1024, 2048, 3000, 4095, 4096},
                    2.0 / 64 + 1e-9);
}

TEST(HistogramTest, ZipfianDataRangeWithinEquiDepthBound) {
  // Zipf(s=1.2) over ranks 1..1000, sampled by inverse CDF. The head
  // ranks are heavy runs; equi-depth bucketing keeps each run in one
  // bucket, so range error stays bounded by the largest run's mass plus
  // one bucket (a run of a frequent value can overfill its bucket).
  const int kRanks = 1000;
  std::vector<double> cdf(kRanks);
  double total = 0.0;
  for (int r = 1; r <= kRanks; ++r) total += 1.0 / std::pow(r, 1.2);
  double acc = 0.0;
  for (int r = 1; r <= kRanks; ++r) {
    acc += 1.0 / std::pow(r, 1.2) / total;
    cdf[r - 1] = acc;
  }
  common::Random rng(7);
  std::vector<int64_t> data;
  data.reserve(8192);
  for (int i = 0; i < 8192; ++i) {
    const double u = rng.NextDouble();
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    data.push_back(static_cast<int64_t>(it - cdf.begin()) + 1);
  }
  const auto h = stats::EquiDepthHistogram::Build(ToValues(data), 64);
  ASSERT_FALSE(h.empty());

  const double top_mass = ExactFractionEqual(data, 1);  // Largest run.
  ExpectRangeWithin(h, data, {1, 2, 3, 5, 10, 50, 200, 1000},
                    top_mass + 2.0 / 64 + 1e-9);
}

TEST(HistogramTest, HeavyDuplicatesKeepRunsIntact) {
  // 6 distinct values, 1500 copies each. Value runs are never split
  // across buckets, so every bucket boundary is also a run boundary and
  // both equality and range estimates are exact.
  std::vector<int64_t> data;
  for (int64_t v : {10, 20, 30, 40, 50, 60}) {
    for (int i = 0; i < 1500; ++i) data.push_back(v);
  }
  const auto h = stats::EquiDepthHistogram::Build(ToValues(data), 8);
  ASSERT_FALSE(h.empty());

  for (int64_t v : {10, 20, 30, 40, 50, 60}) {
    EXPECT_DOUBLE_EQ(h.FractionEqual(Value(v)), 1.0 / 6) << "v=" << v;
    EXPECT_DOUBLE_EQ(h.FractionBelow(Value(v), /*inclusive=*/true) -
                         h.FractionBelow(Value(v), /*inclusive=*/false),
                     1.0 / 6)
        << "v=" << v;
  }
  ExpectRangeWithin(h, data, {9, 10, 11, 20, 35, 60, 61}, 1e-9);
}

TEST(HistogramTest, EqualityInGapIsZero) {
  std::vector<int64_t> data;
  for (int i = 0; i < 100; ++i) data.push_back(0);
  for (int i = 0; i < 100; ++i) data.push_back(10);
  const auto h = stats::EquiDepthHistogram::Build(ToValues(data), 4);
  // 5 lies inside the histogram's domain but no sampled value equals it.
  EXPECT_DOUBLE_EQ(h.FractionEqual(Value(int64_t{5})), 0.0);
  EXPECT_DOUBLE_EQ(h.FractionEqual(Value(int64_t{0})), 0.5);
}

// ---- HyperLogLog NDV accuracy --------------------------------------------

TEST(HyperLogLogTest, IntNdvWithinFivePercentAt14Bits) {
  // 2^14 registers give ~0.8% standard error; 5% is a ~6 sigma envelope,
  // deterministic for a fixed hash and data set.
  stats::HyperLogLog hll(14);
  const int kDistinct = 100000;
  for (int64_t i = 0; i < kDistinct; ++i) {
    hll.AddValue(Value(i * 7919 + 3));  // Arbitrary distinct keys.
    hll.AddValue(Value(i * 7919 + 3));  // Duplicates must not inflate.
  }
  const double est = hll.Estimate();
  EXPECT_NEAR(est, kDistinct, 0.05 * kDistinct);
  EXPECT_EQ(hll.additions(), static_cast<uint64_t>(2 * kDistinct));
}

TEST(HyperLogLogTest, StringNdvWithinFivePercentAt14Bits) {
  stats::HyperLogLog hll(14);
  const int kDistinct = 50000;
  for (int i = 0; i < kDistinct; ++i) {
    hll.AddValue(Value("key-" + std::to_string(i)));
  }
  EXPECT_NEAR(hll.Estimate(), kDistinct, 0.05 * kDistinct);
}

TEST(HyperLogLogTest, SmallCardinalityIsNearExact) {
  // The linear-counting correction makes tiny NDVs essentially exact.
  stats::HyperLogLog hll(14);
  for (int64_t i = 0; i < 42; ++i) hll.AddValue(Value(i));
  EXPECT_NEAR(hll.Estimate(), 42.0, 1.0);
}

TEST(HyperLogLogTest, MergeMatchesUnion) {
  stats::HyperLogLog a(14);
  stats::HyperLogLog b(14);
  for (int64_t i = 0; i < 30000; ++i) a.AddValue(Value(i));
  for (int64_t i = 20000; i < 50000; ++i) b.AddValue(Value(i));
  a.Merge(b);
  EXPECT_NEAR(a.Estimate(), 50000.0, 0.05 * 50000);
}

TEST(HyperLogLogTest, NumericHashIsTypeConsistent) {
  // 3 == 3.0 under Value::Compare, so the sketch must hash them alike or
  // NDV would double-count mixed-type columns.
  EXPECT_EQ(stats::StableValueHash(Value(int64_t{3})),
            stats::StableValueHash(Value(3.0)));
  EXPECT_NE(stats::StableValueHash(Value(int64_t{3})),
            stats::StableValueHash(Value(int64_t{4})));
  EXPECT_NE(stats::StableValueHash(Value(3.5)),
            stats::StableValueHash(Value(int64_t{3})));
}

TEST(HyperLogLogTest, BoolCountsAsTheEqualInt) {
  // true == 1 == 1.0 and false == 0 under Value::Compare, so a column
  // mixing them holds two distinct values, not four.
  EXPECT_EQ(stats::StableValueHash(Value(true)),
            stats::StableValueHash(Value(int64_t{1})));
  EXPECT_EQ(stats::StableValueHash(Value(false)),
            stats::StableValueHash(Value(0.0)));
  workload::Database db;
  auto table = db.catalog().CreateTable("mixed", {{"x", TypeId::kBool}});
  ASSERT_TRUE(table.ok()) << table.status();
  const std::vector<Value> cycle = {Value(true),  Value(int64_t{1}),
                                    Value(1.0),   Value(false),
                                    Value(int64_t{0}), Value(-0.0)};
  for (size_t i = 0; i < 120; ++i) {
    ASSERT_TRUE(
        (*table)->Insert(types::Tuple({cycle[i % cycle.size()]})).ok());
  }
  auto built =
      stats::BuildTableStatistics(**table, stats::AnalyzeOptions::Default());
  ASSERT_TRUE(built.ok()) << built.status();
  EXPECT_NEAR((*built)->columns[0].ndv, 2.0, 0.5);
}

TEST(HyperLogLogTest, StableHashOfDoublesOutsideInt64Range) {
  // Doubles no int64 can equal hash by their bits; the edge -2^63 is
  // INT64_MIN and must still hash like it.
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<Value> wide = {Value(1e300), Value(-1e300), Value(inf),
                                   Value(-inf), Value(0x1p63),
                                   Value(std::nan(""))};
  for (size_t i = 0; i < wide.size(); ++i) {
    for (size_t j = i + 1; j < wide.size(); ++j) {
      EXPECT_NE(stats::StableValueHash(wide[i]),
                stats::StableValueHash(wide[j]))
          << wide[i].ToString() << " vs " << wide[j].ToString();
    }
  }
  EXPECT_EQ(stats::StableValueHash(Value(-0x1p63)),
            stats::StableValueHash(
                Value(std::numeric_limits<int64_t>::min())));
  EXPECT_EQ(stats::StableValueHash(Value(3.0)),
            stats::StableValueHash(Value(int64_t{3})));
}

// ---- Collector: sampling, determinism, seeds -----------------------------

/// A small hand-built table with planted skew: k is 30% the value 7 and
/// uniform over [100,170) otherwise; u is unique. The declared stats for k
/// claim it is unique — deliberately wrong, so the ladder tests can watch
/// ANALYZE correct them.
class StatsTableTest : public ::testing::Test {
 protected:
  static constexpr int64_t kRows = 2000;
  static constexpr int64_t kHeavy = 7;
  static constexpr double kHeavyFraction = 0.3;

  StatsTableTest() {
    auto t = db_.catalog().CreateTable(
        "t", {{"k", TypeId::kInt64}, {"u", TypeId::kInt64}});
    EXPECT_TRUE(t.ok());
    table_ = *t;
    for (int64_t i = 0; i < kRows; ++i) {
      const int64_t k = i < kRows * kHeavyFraction ? kHeavy : 100 + i % 70;
      EXPECT_TRUE(table_->Insert(types::Tuple({Value(k), Value(i)})).ok());
    }
    catalog::ColumnStats wrong;
    wrong.num_distinct = kRows;  // Claims unique; truly 71 distinct.
    wrong.min_value = 0;
    wrong.max_value = kRows - 1;
    EXPECT_TRUE(table_->SetDeclaredStats("k", wrong).ok());
  }

  /// Options with the reservoir covering the whole table, so sample
  /// estimates are exact up to sketch error.
  static stats::AnalyzeOptions ExactOptions() {
    stats::AnalyzeOptions options = stats::AnalyzeOptions::Default();
    options.reservoir_capacity = 4096;
    return options;
  }

  workload::Database db_;
  catalog::Table* table_ = nullptr;
};

TEST_F(StatsTableTest, BuildIsDeterministicForFixedSeed) {
  stats::AnalyzeOptions options = stats::AnalyzeOptions::Default();
  options.reservoir_capacity = 256;  // Force real sampling decisions.
  auto a = stats::BuildTableStatistics(*table_, options);
  auto b = stats::BuildTableStatistics(*table_, options);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ((*a)->ToString(), (*b)->ToString());
  EXPECT_EQ((*a)->seed, options.seed);
  EXPECT_EQ((*a)->sample_rows, 256u);
}

TEST_F(StatsTableTest, DifferentSeedsDrawDifferentSamples) {
  stats::AnalyzeOptions options = stats::AnalyzeOptions::Default();
  options.reservoir_capacity = 64;  // Sample << table: seeds must matter.
  auto a = stats::BuildTableStatistics(*table_, options);
  options.seed += 1;
  auto b = stats::BuildTableStatistics(*table_, options);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE((*a)->seed, (*b)->seed);
  EXPECT_NE((*a)->ToString(), (*b)->ToString());
}

TEST_F(StatsTableTest, EnvSeedOverridesDefault) {
  ASSERT_EQ(setenv("PPP_STATS_SEED", "424242", 1), 0);
  EXPECT_EQ(stats::AnalyzeOptions::Default().seed, 424242u);
  ASSERT_EQ(unsetenv("PPP_STATS_SEED"), 0);
  EXPECT_EQ(stats::AnalyzeOptions::Default().seed,
            stats::AnalyzeOptions{}.seed);
}

TEST_F(StatsTableTest, CollectsExactScalarsAndAccurateNdv) {
  ASSERT_TRUE(stats::AnalyzeTable(table_, ExactOptions()).ok());
  const auto snapshot = table_->collected_stats();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->row_count, static_cast<uint64_t>(kRows));

  const stats::ColumnDistribution* k = snapshot->Find("k");
  ASSERT_NE(k, nullptr);
  EXPECT_EQ(k->row_count, static_cast<uint64_t>(kRows));
  EXPECT_EQ(k->null_count, 0u);
  ASSERT_TRUE(k->has_range);
  EXPECT_EQ(k->min_value.AsInt64(), kHeavy);
  EXPECT_EQ(k->max_value.AsInt64(), 169);
  EXPECT_NEAR(k->ndv, 71.0, 0.05 * 71);  // True distinct: 7 plus 100..169.

  const stats::ColumnDistribution* u = snapshot->Find("u");
  ASSERT_NE(u, nullptr);
  EXPECT_NEAR(u->ndv, static_cast<double>(kRows), 0.05 * kRows);
}

TEST_F(StatsTableTest, McvListCapturesPlantedHeavyHitter) {
  ASSERT_TRUE(stats::AnalyzeTable(table_, ExactOptions()).ok());
  const auto snapshot = table_->collected_stats();
  const stats::ColumnDistribution* k = snapshot->Find("k");
  ASSERT_NE(k, nullptr);
  ASSERT_FALSE(k->mcvs.empty());
  bool found = false;
  for (const stats::MostCommonValue& mcv : k->mcvs) {
    if (mcv.value.Compare(Value(kHeavy)) == 0) {
      found = true;
      EXPECT_NEAR(mcv.frequency, kHeavyFraction, 0.02);
    }
  }
  EXPECT_TRUE(found) << "heavy hitter missing from MCV list";
  EXPECT_LE(k->mcv_total_frequency, 1.0);
}

// ---- Estimator over collected distributions ------------------------------

class EstimatorTest : public StatsTableTest {
 protected:
  EstimatorTest() {
    EXPECT_TRUE(stats::AnalyzeTable(table_, ExactOptions()).ok());
    snapshot_ = table_->collected_stats();
    k_ = snapshot_->Find("k");
    EXPECT_NE(k_, nullptr);
  }

  std::shared_ptr<const stats::TableStatistics> snapshot_;
  const stats::ColumnDistribution* k_ = nullptr;
};

TEST_F(EstimatorTest, EqualityUsesMcvFrequency) {
  const auto est = stats::EstimateEquals(*k_, Value(kHeavy));
  ASSERT_TRUE(est.has_value());
  EXPECT_NEAR(*est, kHeavyFraction, 0.02);
}

TEST_F(EstimatorTest, EqualityOutsideRangeIsZero) {
  const auto below = stats::EstimateEquals(*k_, Value(int64_t{-5}));
  const auto above = stats::EstimateEquals(*k_, Value(int64_t{500}));
  ASSERT_TRUE(below.has_value());
  ASSERT_TRUE(above.has_value());
  EXPECT_DOUBLE_EQ(*below, 0.0);
  EXPECT_DOUBLE_EQ(*above, 0.0);
}

TEST_F(EstimatorTest, RangeMatchesTruthAndComplementsSum) {
  // True fraction below 100: exactly the heavy hitter's 30%.
  const auto lt = stats::EstimateRange(*k_, stats::RangeOp::kLt,
                                       Value(int64_t{100}));
  ASSERT_TRUE(lt.has_value());
  EXPECT_NEAR(*lt, kHeavyFraction, 0.05);

  // P(< v) + P(>= v) must be ~1 (same histogram walk, complemented).
  for (int64_t v : {7, 100, 135, 169}) {
    const auto less = stats::EstimateRange(*k_, stats::RangeOp::kLt,
                                           Value(v));
    const auto geq = stats::EstimateRange(*k_, stats::RangeOp::kGe,
                                          Value(v));
    ASSERT_TRUE(less.has_value() && geq.has_value()) << "v=" << v;
    EXPECT_NEAR(*less + *geq, 1.0, 1e-6) << "v=" << v;
  }
}

TEST_F(EstimatorTest, JoinFanoutCanExceedOnePerInput) {
  // 2000 x 400 rows over 50 shared keys: 16000 join rows, fan-out 8 over
  // the left input. This >1 per-input selectivity is exactly what flips a
  // "free" join's rank above an expensive predicate (paper S3.2).
  const stats::JoinSelectivity j =
      stats::EstimateJoinSelectivity(2000, 50, 400, 50);
  EXPECT_DOUBLE_EQ(j.over_left, 8.0);
  EXPECT_DOUBLE_EQ(j.over_right, 40.0);
  EXPECT_DOUBLE_EQ(j.over_cross, 1.0 / 50);
}

// ---- Provenance ladder: feedback > stats > declared ----------------------

class LadderTest : public StatsTableTest {
 protected:
  LadderTest() {
    catalog::FunctionDef def;
    def.name = "udfk";
    def.cost_per_call = 20.0;
    def.selectivity = 0.5;
    def.impl = [](const std::vector<Value>& args) {
      return Value(args[0].AsInt64() % 2 == 0);
    };
    EXPECT_TRUE(db_.catalog().functions().Register(def).ok());
    obs::PredicateFeedbackStore::Global().Clear();
  }
  ~LadderTest() override { obs::PredicateFeedbackStore::Global().Clear(); }

  expr::PredicateInfo Analyze(const std::string& sql, bool use_stats,
                              bool use_feedback) {
    auto spec = parser::ParseAndBind(sql, db_.catalog());
    EXPECT_TRUE(spec.ok()) << spec.status();
    expr::TableBinding binding;
    for (const plan::TableRef& ref : spec->tables) {
      binding[ref.alias] = *db_.catalog().GetTable(ref.table_name);
    }
    expr::PredicateAnalyzer analyzer(&db_.catalog(), binding);
    analyzer.set_use_stats(use_stats);
    if (use_feedback) {
      analyzer.set_feedback(&obs::PredicateFeedbackStore::Global());
    }
    EXPECT_EQ(spec->conjuncts.size(), 1u);
    auto info = analyzer.Analyze(spec->conjuncts[0]);
    EXPECT_TRUE(info.ok()) << info.status();
    return *info;
  }
};

TEST_F(LadderTest, DeclaredTierBeforeAnalyze) {
  const expr::PredicateInfo info =
      Analyze("SELECT * FROM t WHERE t.k = 7", /*use_stats=*/true,
              /*use_feedback=*/false);
  EXPECT_EQ(info.selectivity_source, expr::StatSource::kDeclared);
  // Declared stats claim k unique over 2000 rows.
  EXPECT_NEAR(info.selectivity, 1.0 / kRows, 1e-9);
}

TEST_F(LadderTest, StatsTierAfterAnalyze) {
  ASSERT_TRUE(stats::AnalyzeTable(table_, ExactOptions()).ok());
  const expr::PredicateInfo info =
      Analyze("SELECT * FROM t WHERE t.k = 7", /*use_stats=*/true,
              /*use_feedback=*/false);
  EXPECT_EQ(info.selectivity_source, expr::StatSource::kStats);
  // The MCV list knows 7 is ~30% of the table, not 1/2000.
  EXPECT_NEAR(info.selectivity, kHeavyFraction, 0.02);

  // Ranges ride the histogram too.
  const expr::PredicateInfo range =
      Analyze("SELECT * FROM t WHERE t.k < 100", /*use_stats=*/true,
              /*use_feedback=*/false);
  EXPECT_EQ(range.selectivity_source, expr::StatSource::kStats);
  EXPECT_NEAR(range.selectivity, kHeavyFraction, 0.05);
}

TEST_F(LadderTest, DisablingStatsFallsBackToDeclared) {
  ASSERT_TRUE(stats::AnalyzeTable(table_, ExactOptions()).ok());
  const expr::PredicateInfo info =
      Analyze("SELECT * FROM t WHERE t.k = 7", /*use_stats=*/false,
              /*use_feedback=*/false);
  EXPECT_EQ(info.selectivity_source, expr::StatSource::kDeclared);
  EXPECT_NEAR(info.selectivity, 1.0 / kRows, 1e-9);
}

TEST_F(LadderTest, FeedbackTierBeatsDeclaredForUdfs) {
  obs::FeedbackEntry entry;
  entry.cost_per_call = 3.0;
  entry.selectivity = 0.25;
  entry.has_selectivity = true;
  entry.samples = 100;
  obs::PredicateFeedbackStore::Global().Update("udfk", entry);

  const expr::PredicateInfo declared =
      Analyze("SELECT * FROM t WHERE udfk(t.u)", /*use_stats=*/true,
              /*use_feedback=*/false);
  EXPECT_EQ(declared.selectivity_source, expr::StatSource::kDeclared);
  EXPECT_EQ(declared.cost_source, expr::StatSource::kDeclared);
  EXPECT_DOUBLE_EQ(declared.selectivity, 0.5);
  EXPECT_DOUBLE_EQ(declared.cost_per_tuple, 20.0);

  const expr::PredicateInfo fed =
      Analyze("SELECT * FROM t WHERE udfk(t.u)", /*use_stats=*/true,
              /*use_feedback=*/true);
  EXPECT_EQ(fed.selectivity_source, expr::StatSource::kFeedback);
  EXPECT_EQ(fed.cost_source, expr::StatSource::kFeedback);
  EXPECT_DOUBLE_EQ(fed.selectivity, 0.25);
  EXPECT_DOUBLE_EQ(fed.cost_per_tuple, 3.0);
}

TEST_F(LadderTest, CompositeReportsStrongestTier) {
  ASSERT_TRUE(stats::AnalyzeTable(table_, ExactOptions()).ok());
  obs::FeedbackEntry entry;
  entry.cost_per_call = 3.0;
  entry.selectivity = 0.25;
  entry.has_selectivity = true;
  entry.samples = 100;
  obs::PredicateFeedbackStore::Global().Update("udfk", entry);

  // OR keeps both factors in one conjunct (the binder splits top-level
  // ANDs). A stats-tier factor disjoined with a feedback-tier factor: the
  // composite reports the strongest tier used anywhere inside it.
  const expr::PredicateInfo info =
      Analyze("SELECT * FROM t WHERE t.k = 7 OR udfk(t.u)",
              /*use_stats=*/true, /*use_feedback=*/true);
  EXPECT_EQ(info.selectivity_source, expr::StatSource::kFeedback);
  const double expected =
      kHeavyFraction + 0.25 - kHeavyFraction * 0.25;  // Independent OR.
  EXPECT_NEAR(info.selectivity, expected, 0.02);
}

// ---- Concurrency: ANALYZE against running queries ------------------------

TEST(StatsConcurrencyTest, AnalyzeRacesQueriesSafely) {
  workload::Database db;
  workload::BenchmarkConfig config;
  config.scale = 120;
  config.table_numbers = {3, 6, 10};
  ASSERT_TRUE(workload::LoadBenchmarkDatabase(&db, config).ok());
  ASSERT_TRUE(workload::RegisterBenchmarkFunctions(&db).ok());
  auto sql = workload::BenchmarkSql(config, "Q1");
  ASSERT_TRUE(sql.ok()) << sql.status();
  const std::string statement = "EXPLAIN ANALYZE " + *sql;
  serve::SessionManager manager(&db);

  std::atomic<bool> failed{false};
  std::atomic<uint64_t> reference_rows{0};

  std::thread analyzer([&db, &failed]() {
    stats::AnalyzeOptions options = stats::AnalyzeOptions::Default();
    options.reservoir_capacity = 512;  // Keep each pass quick.
    for (int i = 0; i < 6; ++i) {
      options.seed += static_cast<uint64_t>(i);  // Churn the snapshots.
      if (!stats::AnalyzeAll(&db.catalog(), options).ok()) {
        failed = true;
        return;
      }
    }
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&db, &manager, &statement, &failed,
                          &reference_rows]() {
      const std::unique_ptr<serve::Session> session = manager.CreateSession();
      for (int i = 0; i < 3; ++i) {
        auto m = workload::Measure(&db, session.get(), statement);
        if (!m.ok()) {
          failed = true;
          return;
        }
        // Every run must produce the same answer no matter which stats
        // snapshot it planned against.
        uint64_t expected = 0;
        if (!reference_rows.compare_exchange_strong(expected,
                                                    m->output_rows) &&
            expected != m->output_rows) {
          failed = true;
          return;
        }
      }
    });
  }
  analyzer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_FALSE(failed.load());

  // After the dust settles every table carries a stats snapshot.
  for (const std::string& name : db.catalog().TableNames()) {
    EXPECT_NE((*db.catalog().GetTable(name))->collected_stats(), nullptr)
        << name;
  }
}

// ---- Result invariance: stats steer plans, never answers -----------------

class StatsInvarianceTest : public ::testing::Test {
 protected:
  StatsInvarianceTest() {
    config_.scale = 200;
    config_.table_numbers = {1, 3, 6, 7, 9, 10};
    EXPECT_TRUE(workload::LoadBenchmarkDatabase(&db_, config_).ok());
    EXPECT_TRUE(workload::RegisterBenchmarkFunctions(&db_).ok());
  }

  std::vector<std::string> ResultsOf(const plan::QuerySpec& spec,
                                     bool use_stats, int workers) {
    cost::CostParams cost_params;
    cost_params.use_collected_stats = use_stats;
    cost_params.parallel_workers = workers;
    optimizer::Optimizer opt(&db_.catalog(), cost_params);
    auto result = opt.Optimize(spec, optimizer::Algorithm::kMigration);
    EXPECT_TRUE(result.ok()) << result.status();

    exec::ExecContext ctx;
    ctx.catalog = &db_.catalog();
    ctx.cost_params = cost_params;
    for (const plan::TableRef& ref : spec.tables) {
      ctx.binding[ref.alias] = *db_.catalog().GetTable(ref.table_name);
    }
    types::RowSchema schema;
    auto rows = exec::ExecutePlan(*result->plan, &ctx, nullptr, &schema);
    EXPECT_TRUE(rows.ok()) << rows.status();
    return workload::CanonicalResults(*rows, schema);
  }

  workload::Database db_;
  workload::BenchmarkConfig config_;
};

TEST_F(StatsInvarianceTest, BenchmarkResultsIdenticalWithStatsOnOff) {
  for (const char* id : {"Q1", "Q2", "Q3", "Q4", "Q5"}) {
    auto spec = workload::GetBenchmarkQuery(db_, config_, id);
    ASSERT_TRUE(spec.ok()) << spec.status();
    // Reference answer: declared stats only, single worker.
    const std::vector<std::string> reference =
        ResultsOf(*spec, /*use_stats=*/false, /*workers=*/1);
    EXPECT_FALSE(reference.empty()) << id;

    ASSERT_TRUE(
        stats::AnalyzeAll(&db_.catalog(), stats::AnalyzeOptions::Default())
            .ok());
    EXPECT_EQ(ResultsOf(*spec, /*use_stats=*/true, /*workers=*/1),
              reference)
        << id << " stats on, 1 worker";
    EXPECT_EQ(ResultsOf(*spec, /*use_stats=*/true, /*workers=*/4),
              reference)
        << id << " stats on, 4 workers";
    EXPECT_EQ(ResultsOf(*spec, /*use_stats=*/false, /*workers=*/4),
              reference)
        << id << " stats off, 4 workers";
  }
}

// ---- Sorted-run ANALYZE against the hash-map reference -------------------

/// The collector and the catalog's Table::Analyze as they were before both
/// sorted each column once: hash-map sample counts, a ranked sort for the
/// MCV list, a second hash map to leave the MCVs out of the histogram, a
/// sort inside the histogram build, and a std::set per column for distinct
/// counts. Kept as the reference the sorted-run code must match bit for
/// bit.
namespace reference {

struct Histogram {
  std::vector<stats::HistogramBucket> buckets;
  uint64_t total_count = 0;
};

Histogram BuildHistogram(std::vector<Value> values, size_t max_buckets) {
  Histogram h;
  if (values.empty() || max_buckets == 0) return h;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  const size_t depth = std::max<size_t>(1, (n + max_buckets - 1) / max_buckets);
  stats::HistogramBucket current;
  size_t i = 0;
  while (i < n) {
    size_t j = i + 1;
    while (j < n && values[j] == values[i]) ++j;
    if (current.count == 0) current.lo = values[i];
    current.hi = values[i];
    current.count += j - i;
    current.distinct += 1;
    if (current.count >= depth) {
      h.buckets.push_back(std::move(current));
      current = stats::HistogramBucket{};
    }
    i = j;
  }
  if (current.count > 0) h.buckets.push_back(std::move(current));
  h.total_count = n;
  return h;
}

struct Accumulator {
  uint64_t null_count = 0;
  uint64_t non_null_count = 0;
  bool has_range = false;
  Value min_value;
  Value max_value;
  stats::HyperLogLog hll;
  std::vector<Value> reservoir;
  common::Random rng;

  Accumulator(int hll_bits, uint64_t seed) : hll(hll_bits), rng(seed) {}

  void Observe(const Value& v, size_t reservoir_capacity) {
    if (v.is_null()) {
      ++null_count;
      return;
    }
    ++non_null_count;
    if (!has_range) {
      min_value = v;
      max_value = v;
      has_range = true;
    } else {
      if (v < min_value) min_value = v;
      if (max_value < v) max_value = v;
    }
    hll.AddValue(v);
    if (reservoir.size() < reservoir_capacity) {
      reservoir.push_back(v);
    } else {
      const uint64_t slot = rng.NextUint64(non_null_count);
      if (slot < reservoir_capacity) reservoir[slot] = v;
    }
  }
};

/// A ColumnDistribution with the histogram held beside it (an
/// EquiDepthHistogram can only be made by its own builders).
struct Column {
  stats::ColumnDistribution d;
  Histogram histogram;
};

Column Finalize(Accumulator* acc, const catalog::ColumnDef& def,
                uint64_t row_count, const stats::AnalyzeOptions& options) {
  Column c;
  stats::ColumnDistribution& d = c.d;
  d.column = def.name;
  d.type = def.type;
  d.row_count = row_count;
  d.null_count = acc->null_count;
  d.has_range = acc->has_range;
  d.min_value = acc->min_value;
  d.max_value = acc->max_value;
  d.sample_rows = acc->reservoir.size();
  d.ndv = std::min(acc->hll.Estimate(),
                   static_cast<double>(acc->non_null_count));
  const double sample_n = static_cast<double>(acc->reservoir.size());
  if (sample_n == 0.0) return c;
  const double non_null_fraction = 1.0 - d.null_fraction();

  std::unordered_map<Value, uint64_t, types::ValueHasher> counts;
  for (const Value& v : acc->reservoir) ++counts[v];
  std::vector<std::pair<Value, uint64_t>> ranked(counts.begin(),
                                                 counts.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  std::unordered_map<Value, bool, types::ValueHasher> is_mcv;
  for (const auto& [value, count] : ranked) {
    if (d.mcvs.size() >= options.mcv_entries || count < 2) break;
    stats::MostCommonValue mcv;
    mcv.value = value;
    mcv.frequency = static_cast<double>(count) / sample_n * non_null_fraction;
    d.mcv_total_frequency += mcv.frequency;
    is_mcv[value] = true;
    d.mcvs.push_back(std::move(mcv));
  }
  std::vector<Value> rest;
  rest.reserve(acc->reservoir.size());
  for (Value& v : acc->reservoir) {
    if (is_mcv.count(v) == 0) rest.push_back(std::move(v));
  }
  c.histogram = BuildHistogram(std::move(rest), options.histogram_buckets);
  return c;
}

struct TableStatistics {
  uint64_t row_count = 0;
  uint64_t sample_rows = 0;
  std::vector<Column> columns;
};

/// Rows of `table` in scan order.
std::vector<types::Tuple> ScanRows(const catalog::Table& table) {
  std::vector<types::Tuple> rows;
  storage::HeapFile::Iterator it = table.heap().Scan();
  storage::RecordId rid;
  std::string bytes;
  while (it.Next(&rid, &bytes)) {
    auto tuple = types::Tuple::Deserialize(bytes);
    EXPECT_TRUE(tuple.ok());
    rows.push_back(std::move(*tuple));
  }
  return rows;
}

TableStatistics BuildTableStatistics(const catalog::Table& table,
                                     const stats::AnalyzeOptions& options) {
  const std::vector<catalog::ColumnDef>& columns = table.columns();
  std::vector<Accumulator> accs;
  for (size_t i = 0; i < columns.size(); ++i) {
    accs.emplace_back(options.hll_register_bits, options.seed + i * 1000003);
  }
  TableStatistics result;
  for (const types::Tuple& tuple : ScanRows(table)) {
    ++result.row_count;
    for (size_t i = 0; i < columns.size(); ++i) {
      accs[i].Observe(tuple.Get(i), options.reservoir_capacity);
    }
  }
  for (size_t i = 0; i < columns.size(); ++i) {
    result.columns.push_back(
        Finalize(&accs[i], columns[i], result.row_count, options));
    result.sample_rows =
        std::max(result.sample_rows, result.columns.back().d.sample_rows);
  }
  return result;
}

/// Table::Analyze's ColumnStats: a std::set per column for the distinct
/// count, int64 bounds.
std::vector<catalog::ColumnStats> DeclaredStats(const catalog::Table& table) {
  const size_t width = table.columns().size();
  std::vector<std::set<Value>> distinct(width);
  std::vector<catalog::ColumnStats> stats(width);
  std::vector<bool> bounded(width, false);
  for (const types::Tuple& tuple : ScanRows(table)) {
    for (size_t i = 0; i < width; ++i) {
      const Value& v = tuple.Get(i);
      if (v.is_null()) continue;
      distinct[i].insert(v);
      if (v.type() == TypeId::kInt64) {
        const int64_t x = v.AsInt64();
        if (!bounded[i] || x < stats[i].min_value) stats[i].min_value = x;
        if (!bounded[i] || x > stats[i].max_value) stats[i].max_value = x;
        bounded[i] = true;
      }
    }
  }
  for (size_t i = 0; i < width; ++i) {
    stats[i].num_distinct = static_cast<int64_t>(distinct[i].size());
  }
  return stats;
}

}  // namespace reference

uint64_t Bits(double d) { return std::bit_cast<uint64_t>(d); }

/// Same type and content; doubles bit for bit.
void ExpectSameValue(const Value& actual, const Value& expected,
                     const std::string& what) {
  ASSERT_EQ(actual.type(), expected.type())
      << what << ": " << actual.ToString() << " vs " << expected.ToString();
  if (actual.type() == TypeId::kDouble) {
    EXPECT_EQ(Bits(actual.AsDouble()), Bits(expected.AsDouble()))
        << what << ": " << actual.ToString() << " vs " << expected.ToString();
  } else {
    EXPECT_EQ(actual.Compare(expected), 0)
        << what << ": " << actual.ToString() << " vs " << expected.ToString();
  }
}

void ExpectSameDistribution(const stats::ColumnDistribution& actual,
                            const reference::Column& expected) {
  const stats::ColumnDistribution& e = expected.d;
  const std::string& col = e.column;
  EXPECT_EQ(actual.column, e.column);
  EXPECT_EQ(actual.type, e.type) << col;
  EXPECT_EQ(actual.row_count, e.row_count) << col;
  EXPECT_EQ(actual.null_count, e.null_count) << col;
  EXPECT_EQ(actual.has_range, e.has_range) << col;
  ExpectSameValue(actual.min_value, e.min_value, col + " min");
  ExpectSameValue(actual.max_value, e.max_value, col + " max");
  EXPECT_EQ(Bits(actual.ndv), Bits(e.ndv)) << col;
  EXPECT_EQ(actual.sample_rows, e.sample_rows) << col;
  EXPECT_EQ(Bits(actual.mcv_total_frequency), Bits(e.mcv_total_frequency))
      << col;
  ASSERT_EQ(actual.mcvs.size(), e.mcvs.size()) << col;
  for (size_t i = 0; i < e.mcvs.size(); ++i) {
    const std::string what = col + " mcv " + std::to_string(i);
    ExpectSameValue(actual.mcvs[i].value, e.mcvs[i].value, what);
    EXPECT_EQ(Bits(actual.mcvs[i].frequency), Bits(e.mcvs[i].frequency))
        << what;
  }
  const stats::EquiDepthHistogram& h = actual.histogram;
  EXPECT_EQ(h.total_count(), expected.histogram.total_count) << col;
  ASSERT_EQ(h.buckets().size(), expected.histogram.buckets.size()) << col;
  for (size_t i = 0; i < h.buckets().size(); ++i) {
    const stats::HistogramBucket& a = h.buckets()[i];
    const stats::HistogramBucket& b = expected.histogram.buckets[i];
    const std::string what = col + " bucket " + std::to_string(i);
    ExpectSameValue(a.lo, b.lo, what + " lo");
    ExpectSameValue(a.hi, b.hi, what + " hi");
    EXPECT_EQ(a.count, b.count) << what;
    EXPECT_EQ(a.distinct, b.distinct) << what;
  }
}

/// Both ANALYZE paths over `table` — the collector under `options` and the
/// catalog's Table::Analyze — against the reference.
void ExpectAnalyzeMatchesReference(catalog::Table* table,
                                   const stats::AnalyzeOptions& options) {
  auto actual = stats::BuildTableStatistics(*table, options);
  ASSERT_TRUE(actual.ok()) << actual.status();
  const reference::TableStatistics expected =
      reference::BuildTableStatistics(*table, options);
  EXPECT_EQ((*actual)->row_count, expected.row_count);
  EXPECT_EQ((*actual)->sample_rows, expected.sample_rows);
  EXPECT_EQ((*actual)->seed, options.seed);
  ASSERT_EQ((*actual)->columns.size(), expected.columns.size());
  for (size_t i = 0; i < expected.columns.size(); ++i) {
    ExpectSameDistribution((*actual)->columns[i], expected.columns[i]);
  }

  ASSERT_TRUE(table->Analyze().ok());
  const std::vector<catalog::ColumnStats> declared =
      reference::DeclaredStats(*table);
  for (size_t i = 0; i < declared.size(); ++i) {
    const catalog::ColumnStats& got =
        table->GetColumnStats(table->columns()[i].name);
    EXPECT_EQ(got.num_distinct, declared[i].num_distinct)
        << table->columns()[i].name;
    EXPECT_EQ(got.min_value, declared[i].min_value);
    EXPECT_EQ(got.max_value, declared[i].max_value);
  }
}

class AnalyzeExactnessTest : public ::testing::Test {
 protected:
  catalog::Table* MakeTable(const std::vector<catalog::ColumnDef>& columns,
                            const std::vector<types::Tuple>& rows) {
    auto table = db_.catalog().CreateTable("x", columns);
    EXPECT_TRUE(table.ok()) << table.status();
    for (const types::Tuple& row : rows) {
      EXPECT_TRUE((*table)->Insert(row).ok());
    }
    return *table;
  }

  /// Int64 columns with NULLs and duplicates: `k` is a tenth NULL over 40
  /// values, `skew` 30% one value over a wide tail, `u` unique, `none`
  /// all NULL.
  catalog::Table* MakeInt64Table(int64_t rows) {
    common::Random rng(7);
    std::vector<types::Tuple> tuples;
    for (int64_t i = 0; i < rows; ++i) {
      const Value k = rng.NextUint64(10) == 0
                          ? Value()
                          : Value(static_cast<int64_t>(rng.NextUint64(40)));
      const int64_t skew =
          i % 10 < 3 ? 7 : static_cast<int64_t>(rng.NextUint64(2000));
      tuples.push_back(
          types::Tuple({k, Value(skew), Value(rows - i), Value()}));
    }
    return MakeTable({{"k", TypeId::kInt64},
                      {"skew", TypeId::kInt64},
                      {"u", TypeId::kInt64},
                      {"none", TypeId::kInt64}},
                     tuples);
  }

  workload::Database db_;
};

TEST_F(AnalyzeExactnessTest, Int64WithNullsAndDuplicates) {
  ExpectAnalyzeMatchesReference(MakeInt64Table(3000),
                                stats::AnalyzeOptions::Default());
}

TEST_F(AnalyzeExactnessTest, ReservoirSmallerThanTable) {
  // Slots get replaced: the sample is a strict subset of the table.
  stats::AnalyzeOptions options = stats::AnalyzeOptions::Default();
  options.reservoir_capacity = 300;
  options.histogram_buckets = 7;
  ExpectAnalyzeMatchesReference(MakeInt64Table(3000), options);
}

TEST_F(AnalyzeExactnessTest, Strings) {
  common::Random rng(11);
  std::vector<types::Tuple> rows;
  for (int64_t i = 0; i < 2500; ++i) {
    // Some values are longer than the small-string buffer.
    const uint64_t pick = rng.NextUint64(60);
    const Value s = pick == 0 ? Value()
                    : pick % 3 == 0
                        ? Value("a longer string value number " +
                                std::to_string(pick))
                        : Value("v" + std::to_string(pick));
    rows.push_back(types::Tuple({s, Value("row" + std::to_string(i))}));
  }
  ExpectAnalyzeMatchesReference(
      MakeTable({{"s", TypeId::kString}, {"u", TypeId::kString}}, rows),
      stats::AnalyzeOptions::Default());
}

TEST_F(AnalyzeExactnessTest, Doubles) {
  // Includes values outside int64's range, which the NDV sketch hashes
  // by their bits.
  common::Random rng(13);
  std::vector<types::Tuple> rows;
  for (int64_t i = 0; i < 2500; ++i) {
    Value x(static_cast<double>(rng.NextUint64(300)) * 0.25 - 20.0);
    if (i % 97 == 0) x = Value(1e300);
    if (i % 101 == 0) x = Value(-std::numeric_limits<double>::infinity());
    if (i % 103 == 0) x = Value(std::numeric_limits<double>::infinity());
    if (i % 50 == 0) x = Value();
    rows.push_back(types::Tuple(
        {x, Value(static_cast<double>(i) / 7.0 + 1e-3)}));
  }
  ExpectAnalyzeMatchesReference(
      MakeTable({{"x", TypeId::kDouble}, {"u", TypeId::kDouble}}, rows),
      stats::AnalyzeOptions::Default());
}

TEST_F(AnalyzeExactnessTest, MixedInt64AndDoubleKeepsFirstSampledCopy) {
  // 5 and 5.0 compare equal, so they count as one value; the MCV entry
  // carries whichever copy was sampled first: the int64 5, and for 9 the
  // double 9.0.
  common::Random rng(17);
  std::vector<types::Tuple> rows;
  for (int64_t i = 0; i < 2000; ++i) {
    Value m;
    if (i == 0) {
      m = Value(int64_t{5});
    } else if (i == 1) {
      m = Value(9.0);
    } else if (i % 4 == 0) {
      m = Value(5.0);
    } else if (i % 4 == 1) {
      m = Value(int64_t{9});
    } else if (i % 4 == 2) {
      m = Value(static_cast<double>(rng.NextUint64(8)) + 0.5);
    } else {
      m = Value(1000 + i);
    }
    rows.push_back(types::Tuple({m}));
  }
  catalog::Table* table = MakeTable({{"m", TypeId::kInt64}}, rows);
  ExpectAnalyzeMatchesReference(table, stats::AnalyzeOptions::Default());

  auto built =
      stats::BuildTableStatistics(*table, stats::AnalyzeOptions::Default());
  ASSERT_TRUE(built.ok());
  const std::vector<stats::MostCommonValue>& mcvs = (*built)->columns[0].mcvs;
  ASSERT_GE(mcvs.size(), 2u);
  ExpectSameValue(mcvs[0].value, Value(int64_t{5}), "first mcv");
  ExpectSameValue(mcvs[1].value, Value(9.0), "second mcv");
}

TEST_F(AnalyzeExactnessTest, CountTiesAtTheLastMcvSlot) {
  // Ten values sampled 5 times, thirty sampled 3 times, the rest once, in
  // shuffled order: the 16-entry MCV list takes the ten, then the six
  // smallest of the thirty tied values.
  std::vector<int64_t> data;
  for (int64_t v = 0; v < 10; ++v) data.insert(data.end(), 5, 500 + v);
  for (int64_t v = 0; v < 30; ++v) data.insert(data.end(), 3, 100 + v);
  for (int64_t v = 0; v < 200; ++v) data.push_back(1000 + v);
  common::Random rng(19);
  for (size_t i = data.size(); i > 1; --i) {
    std::swap(data[i - 1], data[rng.NextUint64(i)]);
  }
  std::vector<types::Tuple> rows;
  for (int64_t x : data) rows.push_back(types::Tuple({Value(x)}));
  catalog::Table* table = MakeTable({{"t", TypeId::kInt64}}, rows);
  ExpectAnalyzeMatchesReference(table, stats::AnalyzeOptions::Default());

  auto built =
      stats::BuildTableStatistics(*table, stats::AnalyzeOptions::Default());
  ASSERT_TRUE(built.ok());
  const std::vector<stats::MostCommonValue>& mcvs = (*built)->columns[0].mcvs;
  ASSERT_EQ(mcvs.size(), 16u);
  for (size_t i = 0; i < 16; ++i) {
    const int64_t want = i < 10 ? 500 + static_cast<int64_t>(i)
                                : 100 + static_cast<int64_t>(i - 10);
    EXPECT_EQ(mcvs[i].value.AsInt64(), want) << "slot " << i;
  }
}

TEST(SortedRunsTest, RunsAreHeadedByTheirFirstCopy) {
  const std::vector<stats::ValueRun> runs = stats::SortedRuns(
      {Value(5.0), Value(int64_t{5}), Value(int64_t{3}), Value(int64_t{5})});
  ASSERT_EQ(runs.size(), 2u);
  ExpectSameValue(runs[0].value, Value(int64_t{3}), "run 0");
  EXPECT_EQ(runs[0].count, 1u);
  ExpectSameValue(runs[1].value, Value(5.0), "run 1");
  EXPECT_EQ(runs[1].count, 3u);
}

}  // namespace
}  // namespace ppp

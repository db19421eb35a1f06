#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace ppp::obs {
namespace {

TEST(CounterTest, IncrementAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(CounterTest, StripedIncrementsFromManyThreadsSumExactly) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c.Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
  c.Increment(3);
  EXPECT_EQ(c.value(), 3u);
}

TEST(GaugeTest, SetAddReset) {
  Gauge g;
  g.Set(10.0);
  g.Add(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 12.5);
  g.Set(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), -1.0);
  g.Reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(HistogramTest, ExactPercentilesOverOneToHundred) {
  Histogram h;
  // Insert out of order; percentiles are over the sorted samples.
  for (int i = 100; i >= 1; --i) h.Observe(i);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.sum(), 5050.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  // Nearest-rank over N=100: p maps straight to the p-th sample.
  EXPECT_DOUBLE_EQ(h.Percentile(50), 50.0);
  EXPECT_DOUBLE_EQ(h.Percentile(95), 95.0);
  EXPECT_DOUBLE_EQ(h.Percentile(99), 99.0);
  EXPECT_DOUBLE_EQ(h.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 100.0);
}

TEST(HistogramTest, EmptyAndSingleSample) {
  Histogram h;
  EXPECT_DOUBLE_EQ(h.Percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  h.Observe(7.0);
  EXPECT_DOUBLE_EQ(h.Percentile(1), 7.0);
  EXPECT_DOUBLE_EQ(h.Percentile(99), 7.0);
}

TEST(HistogramTest, BelowCapKeepsEverySample) {
  Histogram h;
  const size_t n = Histogram::kSampleCap;
  for (size_t i = 1; i <= n; ++i) h.Observe(static_cast<double>(i));
  EXPECT_EQ(h.count(), n);
  EXPECT_FALSE(h.samples_capped());
  // With every sample retained, percentiles are exact nearest-rank.
  EXPECT_DOUBLE_EQ(h.Percentile(50), static_cast<double>(n / 2));
  EXPECT_DOUBLE_EQ(h.Percentile(100), static_cast<double>(n));
}

TEST(HistogramTest, PastCapScalarsStayExact) {
  Histogram h;
  const size_t n = 3 * Histogram::kSampleCap;
  double sum = 0.0;
  for (size_t i = 1; i <= n; ++i) {
    h.Observe(static_cast<double>(i));
    sum += static_cast<double>(i);
  }
  // count/sum/min/max come from exact scalars, not the reservoir.
  EXPECT_EQ(h.count(), n);
  EXPECT_TRUE(h.samples_capped());
  EXPECT_DOUBLE_EQ(h.sum(), sum);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), static_cast<double>(n));
}

TEST(HistogramTest, ReservoirPercentilesApproximatePastCap) {
  Histogram h;
  // Uniform 1..N with N = 8 * cap: the reservoir is a uniform sample, so
  // nearest-rank percentiles over it should land near the true values.
  // The xorshift stream is seeded deterministically, so this is stable.
  const size_t n = 8 * Histogram::kSampleCap;
  for (size_t i = 1; i <= n; ++i) h.Observe(static_cast<double>(i));
  const double p50 = h.Percentile(50);
  const double p90 = h.Percentile(90);
  EXPECT_NEAR(p50 / static_cast<double>(n), 0.5, 0.05);
  EXPECT_NEAR(p90 / static_cast<double>(n), 0.9, 0.05);
  EXPECT_GE(h.Percentile(0), 1.0);
  EXPECT_LE(h.Percentile(100), static_cast<double>(n));
}

TEST(HistogramTest, CappedFlagSurfacesInSnapshotTextAndJson) {
  MetricsRegistry registry;
  Histogram* small = registry.GetHistogram("test.small");
  small->Observe(1.0);
  Histogram* big = registry.GetHistogram("test.big");
  for (size_t i = 0; i < Histogram::kSampleCap + 1; ++i) big->Observe(1.0);

  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_FALSE(snap.histograms.at("test.small").samples_capped);
  EXPECT_TRUE(snap.histograms.at("test.big").samples_capped);
  const std::string text = snap.ToText();
  EXPECT_NE(text.find("test.big"), std::string::npos);
  EXPECT_NE(text.find("samples_capped=1"), std::string::npos);
  const std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"samples_capped\": true"), std::string::npos);
  EXPECT_NE(json.find("\"samples_capped\": false"), std::string::npos);
}

TEST(HistogramTest, ResetClearsCapState) {
  Histogram h;
  for (size_t i = 0; i < Histogram::kSampleCap + 10; ++i) h.Observe(2.0);
  ASSERT_TRUE(h.samples_capped());
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_FALSE(h.samples_capped());
  h.Observe(5.0);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 5.0);
  EXPECT_DOUBLE_EQ(h.sum(), 5.0);
}

TEST(MetricsRegistryTest, StablePointersAndSnapshot) {
  MetricsRegistry registry;
  Counter* hits = registry.GetCounter("test.hits");
  Gauge* depth = registry.GetGauge("test.depth");
  Histogram* lat = registry.GetHistogram("test.latency");
  hits->Increment(3);
  depth->Set(4.0);
  lat->Observe(1.0);
  lat->Observe(2.0);
  // Creating more metrics must not invalidate earlier pointers.
  for (int i = 0; i < 64; ++i) {
    registry.GetCounter("test.other" + std::to_string(i));
  }
  EXPECT_EQ(registry.GetCounter("test.hits"), hits);
  hits->Increment();

  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("test.hits"), 4u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("test.depth"), 4.0);
  EXPECT_EQ(snap.histograms.at("test.latency").count, 2u);
  EXPECT_DOUBLE_EQ(snap.histograms.at("test.latency").sum, 3.0);

  const std::string text = snap.ToText();
  EXPECT_NE(text.find("test.hits 4"), std::string::npos);
  EXPECT_NE(text.find("test.latency count=2"), std::string::npos);
  const std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"test.hits\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

TEST(MetricsRegistryTest, ResetAllKeepsRegistrations) {
  MetricsRegistry registry;
  Counter* c = registry.GetCounter("test.count");
  c->Increment(9);
  Gauge* g = registry.GetGauge("test.state");
  g->Set(2.0);
  registry.ResetAll();
  EXPECT_EQ(c->value(), 0u);
  // Gauges are state, not accumulated work: a reset leaves them alone.
  EXPECT_DOUBLE_EQ(g->value(), 2.0);
  // The same pointer keeps working after a reset.
  c->Increment();
  EXPECT_EQ(registry.Snapshot().counters.at("test.count"), 1u);
}

TEST(OptTraceTest, AddAndFind) {
  OptTrace trace;
  EXPECT_TRUE(trace.empty());
  trace.Add("dp.prune", "t1 x t3", {12.5});
  trace.Add("migration.move", "costly100 up", {0.5});
  trace.Add("dp.prune", "t3 x t10", {7.0});
  ASSERT_EQ(trace.entries().size(), 3u);

  const auto prunes = trace.Find("dp.prune");
  ASSERT_EQ(prunes.size(), 2u);
  EXPECT_EQ(prunes[0]->detail, "t1 x t3");
  EXPECT_DOUBLE_EQ(prunes[1]->values[0], 7.0);
  EXPECT_TRUE(trace.Find("nope").empty());
}

TEST(OptTraceTest, TextDump) {
  OptTrace trace;
  trace.Add("outer", "scope");
  trace.Add("inner", "say \"hi\"", {1.0, 2.0});
  const std::string text = trace.ToText();
  // One line per entry, in recording order, values after the detail.
  EXPECT_EQ(text, "outer: scope\ninner: say \"hi\" [1 2]\n");

  trace.Clear();
  EXPECT_TRUE(trace.empty());
}

}  // namespace
}  // namespace ppp::obs

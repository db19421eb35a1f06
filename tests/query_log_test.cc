// Unit tests for the observability layer's record stores: the BoundedRing
// every store keeps its records in (oldest-first order, wraparound, tail,
// resizing, the on/off switch, and concurrent writers — run under TSan),
// what QueryLog and PlanAudit add on top of it (query ids, the 1 s bucket
// clock, the environment default), and the Chrome-trace round-trip with
// dropped spans surviving the parse.

#include <gtest/gtest.h>
#include <stdlib.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/bounded_ring.h"
#include "obs/query_log.h"
#include "obs/span.h"
#include "obs/trace_export.h"
#include "trace_reader.h"

namespace ppp {
namespace {

using obs::BoundedRing;
using obs::QueryLog;
using obs::QueryLogRecord;
using obs::StatsTier;

/// A ring record whose fields mirror its id, so a torn copy is detectable.
struct Rec {
  uint64_t id = 0;
  uint64_t mirror = 0;
  std::string text;
};

Rec MakeRec(uint64_t id) { return Rec{id, id * 3, std::to_string(id)}; }

std::vector<uint64_t> Ids(const std::vector<Rec>& records) {
  std::vector<uint64_t> ids;
  for (const Rec& r : records) ids.push_back(r.id);
  return ids;
}

QueryLogRecord MakeRecord(uint64_t id) {
  QueryLogRecord r;
  r.query_id = id;
  r.text_hash = id * 3;
  r.plan_fingerprint = id * 5;
  r.algorithm = "migration";
  r.rows_out = id;
  return r;
}

TEST(BoundedRingTest, AppendsAreSnapshotOldestFirst) {
  BoundedRing<Rec> ring(16);
  for (uint64_t i = 1; i <= 5; ++i) ring.Append(MakeRec(i));
  EXPECT_EQ(Ids(ring.Snapshot()), (std::vector<uint64_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(ring.size(), 5u);
  EXPECT_EQ(ring.total(), 5u);
  EXPECT_EQ(ring.evicted(), 0u);
}

TEST(BoundedRingTest, WraparoundKeepsNewestAndCountsEvictions) {
  BoundedRing<Rec> ring(4);
  for (uint64_t i = 1; i <= 10; ++i) ring.Append(MakeRec(i));
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.total(), 10u);
  EXPECT_EQ(ring.evicted(), 6u);
  EXPECT_EQ(Ids(ring.Snapshot()), (std::vector<uint64_t>{7, 8, 9, 10}));
}

TEST(BoundedRingTest, TailReturnsTheNewestOldestFirst) {
  BoundedRing<Rec> ring(4);
  for (uint64_t i = 1; i <= 6; ++i) ring.Append(MakeRec(i));  // Wrapped.
  EXPECT_EQ(Ids(ring.Tail(3)), (std::vector<uint64_t>{4, 5, 6}));
  EXPECT_EQ(Ids(ring.Tail(100)), (std::vector<uint64_t>{3, 4, 5, 6}));
  EXPECT_TRUE(ring.Tail(0).empty());
}

TEST(BoundedRingTest, ShrinkingCapacityKeepsTheNewestRecords) {
  BoundedRing<Rec> ring(4);
  for (uint64_t i = 1; i <= 6; ++i) ring.Append(MakeRec(i));  // Wrapped.
  ring.set_capacity(2);
  EXPECT_EQ(ring.capacity(), 2u);
  EXPECT_EQ(Ids(ring.Snapshot()), (std::vector<uint64_t>{5, 6}));
  // Growing again keeps order and fills the new room before evicting.
  ring.set_capacity(3);
  ring.Append(MakeRec(7));
  EXPECT_EQ(Ids(ring.Snapshot()), (std::vector<uint64_t>{5, 6, 7}));
  ring.Append(MakeRec(8));
  EXPECT_EQ(Ids(ring.Snapshot()), (std::vector<uint64_t>{6, 7, 8}));
}

TEST(BoundedRingTest, DisabledAppendsAreDropped) {
  BoundedRing<Rec> ring(4, /*enabled=*/false);
  EXPECT_FALSE(ring.enabled());
  ring.Append(MakeRec(1));
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.total(), 0u);
  ring.set_enabled(true);
  ring.Append(MakeRec(2));
  EXPECT_EQ(Ids(ring.Snapshot()), (std::vector<uint64_t>{2}));
}

TEST(BoundedRingTest, ClearDropsRecordsAndZeroesCounters) {
  BoundedRing<Rec> ring(2);
  for (uint64_t i = 1; i <= 5; ++i) ring.Append(MakeRec(i));
  ring.Clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.total(), 0u);
  EXPECT_EQ(ring.evicted(), 0u);
  EXPECT_EQ(ring.capacity(), 2u);
  ring.Append(MakeRec(6));
  EXPECT_EQ(Ids(ring.Snapshot()), (std::vector<uint64_t>{6}));
}

// Writers race each other and a reader through ring growth and wraparound
// without tearing records. Run under -DPPP_SANITIZE=thread this is the TSan
// witness for every store built on the ring.
TEST(BoundedRingTest, ConcurrentWritersWrapWithoutTearingRecords) {
  BoundedRing<Rec> ring(64);  // Far smaller than the append volume.
  constexpr int kWriters = 4;
  constexpr uint64_t kPerWriter = 2000;
  std::atomic<uint64_t> next_id{0};
  std::atomic<bool> stop{false};

  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const Rec& r : ring.Snapshot()) {
        ASSERT_EQ(r.mirror, r.id * 3);
        ASSERT_EQ(r.text, std::to_string(r.id));
      }
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&] {
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        ring.Append(MakeRec(next_id.fetch_add(1) + 1));
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_EQ(ring.total(), kWriters * kPerWriter);
  EXPECT_EQ(ring.size(), 64u);
  EXPECT_EQ(ring.evicted(), kWriters * kPerWriter - 64);
  std::set<uint64_t> ids;
  for (const Rec& r : ring.Snapshot()) ids.insert(r.id);
  EXPECT_EQ(ids.size(), 64u);  // All retained records are distinct.
}

TEST(StatsTierTest, NamesMatchTheProvenanceLadder) {
  EXPECT_STREQ(obs::StatsTierName(StatsTier::kDeclared), "declared");
  EXPECT_STREQ(obs::StatsTierName(StatsTier::kStats), "stats");
  EXPECT_STREQ(obs::StatsTierName(StatsTier::kFeedback), "feedback");
}

TEST(QueryLogTest, DisabledLogDropsAppendsButKeepsIssuingIds) {
  QueryLog log;
  EXPECT_EQ(log.NextQueryId(), 1u);
  log.set_enabled(false);
  log.Append(MakeRecord(log.NextQueryId()));
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.total(), 0u);
  log.set_enabled(true);
  EXPECT_EQ(log.NextQueryId(), 3u);  // Ids advanced through the off window.
}

TEST(QueryLogTest, ClearDropsRecordsButNotIdentity) {
  QueryLog log;
  log.NextQueryId();
  for (uint64_t i = 1; i <= 3; ++i) log.Append(MakeRecord(i));
  log.Clear();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.total(), 0u);
  EXPECT_EQ(log.evicted(), 0u);
  EXPECT_EQ(log.NextQueryId(), 2u);
}

TEST(QueryLogTest, BucketsCountWholeSecondsFromTheLogsOwnEpoch) {
  // The bucket clock starts at construction, so a fresh log is in bucket
  // 0 and never moves backwards.
  QueryLog log;
  const int64_t first = log.CurrentBucket();
  EXPECT_EQ(first, 0);
  EXPECT_GE(log.CurrentBucket(), first);
}

TEST(QueryLogTest, EnvSwitchSetsTheDefault) {
  const char* saved = getenv("PPP_QUERY_LOG");
  const std::string restore = saved == nullptr ? "" : saved;
  ASSERT_EQ(unsetenv("PPP_QUERY_LOG"), 0);
  EXPECT_TRUE(QueryLog().enabled());
  ASSERT_EQ(setenv("PPP_QUERY_LOG", "0", 1), 0);
  EXPECT_FALSE(QueryLog().enabled());
  if (saved == nullptr) {
    unsetenv("PPP_QUERY_LOG");
  } else {
    setenv("PPP_QUERY_LOG", restore.c_str(), 1);
  }
}

TEST(TraceExportTest, DroppedEventsSurviveTheJsonRoundTrip) {
  std::vector<obs::SpanEvent> events;
  obs::SpanEvent e;
  e.name = "execute \"q\"\n";  // Exercise escaping in the same pass.
  e.cat = "exec";
  e.ts_us = 12.5;
  e.dur_us = 100.25;
  e.tid = 3;
  e.args.emplace_back("query_id", "7");
  events.push_back(e);

  const std::string json = obs::ToChromeTraceJson(events, 42);
  auto parsed = obs::ParseChromeTraceFull(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->dropped_events, 42u);
  ASSERT_EQ(parsed->events.size(), 1u);
  EXPECT_EQ(parsed->events[0].name, e.name);
  EXPECT_EQ(parsed->events[0].tid, 3);
  ASSERT_EQ(parsed->events[0].args.size(), 1u);
  EXPECT_EQ(parsed->events[0].args[0].second, "7");
}

TEST(TraceExportTest, DefaultExportReportsZeroDropped) {
  auto parsed = obs::ParseChromeTraceFull(obs::ToChromeTraceJson({}));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->dropped_events, 0u);
  EXPECT_TRUE(parsed->events.empty());
}

TEST(TraceExportTest, TracerOverflowCountPropagatesThroughExport) {
  obs::SpanTracer& tracer = obs::SpanTracer::Global();
  tracer.Clear();
  tracer.set_capacity(2);
  tracer.set_enabled(true);
  for (int i = 0; i < 5; ++i) {
    obs::Span span("test", "overflow" + std::to_string(i));
  }
  tracer.set_enabled(false);
  EXPECT_EQ(tracer.size(), 2u);
  EXPECT_EQ(tracer.dropped(), 3u);

  const std::string json =
      obs::ToChromeTraceJson(tracer.Snapshot(), tracer.dropped());
  auto parsed = obs::ParseChromeTraceFull(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->events.size(), 2u);
  EXPECT_EQ(parsed->events[0].name, "overflow3");  // The newest two.
  EXPECT_EQ(parsed->events[1].name, "overflow4");
  EXPECT_EQ(parsed->dropped_events, 3u);

  tracer.set_capacity(obs::SpanTracer::kCapacity);
  tracer.Clear();
}

}  // namespace
}  // namespace ppp

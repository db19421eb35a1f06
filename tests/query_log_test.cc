// Unit tests for the introspection backing stores: the QueryLog ring
// (including wraparound under concurrent writers — run under TSan, and its
// 1 s bucket clock) and the Chrome-trace round-trip with dropped events
// surviving the parse.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/query_log.h"
#include "obs/span.h"
#include "obs/trace_export.h"

namespace ppp {
namespace {

using obs::QueryLog;
using obs::QueryLogRecord;
using obs::StatsTier;

QueryLogRecord MakeRecord(uint64_t id) {
  QueryLogRecord r;
  r.query_id = id;
  r.text_hash = id * 3;
  r.plan_fingerprint = id * 5;
  r.algorithm = "migration";
  r.rows_out = id;  // Mirrors query_id so torn records are detectable.
  return r;
}

TEST(StatsTierTest, NamesMatchTheProvenanceLadder) {
  EXPECT_STREQ(obs::StatsTierName(StatsTier::kDeclared), "declared");
  EXPECT_STREQ(obs::StatsTierName(StatsTier::kStats), "stats");
  EXPECT_STREQ(obs::StatsTierName(StatsTier::kFeedback), "feedback");
}

TEST(QueryLogTest, AppendsAreSnapshotOldestFirst) {
  QueryLog log;
  for (uint64_t i = 1; i <= 5; ++i) log.Append(MakeRecord(i));
  const std::vector<QueryLogRecord> all = log.Snapshot();
  ASSERT_EQ(all.size(), 5u);
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].query_id, i + 1);
  }
  EXPECT_EQ(log.total(), 5u);
  EXPECT_EQ(log.evicted(), 0u);
}

TEST(QueryLogTest, WraparoundKeepsNewestAndCountsEvictions) {
  QueryLog log;
  log.set_capacity(4);
  for (uint64_t i = 1; i <= 10; ++i) log.Append(MakeRecord(i));
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.total(), 10u);
  EXPECT_EQ(log.evicted(), 6u);
  const std::vector<QueryLogRecord> all = log.Snapshot();
  ASSERT_EQ(all.size(), 4u);
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].query_id, i + 7);  // 7, 8, 9, 10.
  }
}

TEST(QueryLogTest, TailReturnsTheNewestOldestFirst) {
  QueryLog log;
  for (uint64_t i = 1; i <= 8; ++i) log.Append(MakeRecord(i));
  const std::vector<QueryLogRecord> tail = log.Tail(3);
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail[0].query_id, 6u);
  EXPECT_EQ(tail[2].query_id, 8u);
  EXPECT_EQ(log.Tail(100).size(), 8u);
}

TEST(QueryLogTest, ShrinkingCapacityKeepsTheNewestRecords) {
  QueryLog log;
  for (uint64_t i = 1; i <= 6; ++i) log.Append(MakeRecord(i));
  log.set_capacity(2);
  const std::vector<QueryLogRecord> all = log.Snapshot();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].query_id, 5u);
  EXPECT_EQ(all[1].query_id, 6u);
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

// The tentpole concurrency contract: writers race each other and a reader
// through ring wraparound without tearing records. Run under
// -DPPP_SANITIZE=thread this is the TSan witness for the log.
TEST(QueryLogTest, ConcurrentWritersWrapWithoutTearingRecords) {
  QueryLog log;
  log.set_capacity(64);  // Far smaller than the append volume: all wrap.
  constexpr int kWriters = 4;
  constexpr uint64_t kPerWriter = 2000;
  std::atomic<bool> stop{false};

  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const QueryLogRecord& r : log.Snapshot()) {
        // A torn record would break the id-mirroring invariants.
        ASSERT_EQ(r.rows_out, r.query_id);
        ASSERT_EQ(r.text_hash, r.query_id * 3);
      }
    }
  });

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&] {
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        log.Append(MakeRecord(log.NextQueryId()));
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_EQ(log.total(), kWriters * kPerWriter);
  EXPECT_EQ(log.size(), 64u);
  EXPECT_EQ(log.evicted(), kWriters * kPerWriter - 64);
  std::set<uint64_t> ids;
  for (const QueryLogRecord& r : log.Snapshot()) ids.insert(r.query_id);
  EXPECT_EQ(ids.size(), 64u);  // All retained records are distinct.
}

TEST(QueryLogTest, BucketsCountWholeSecondsFromTheLogsOwnEpoch) {
  // The bucket clock starts at construction, so a fresh log is in bucket
  // 0 and never moves backwards.
  QueryLog log;
  const int64_t first = log.CurrentBucket();
  EXPECT_EQ(first, 0);
  EXPECT_GE(log.CurrentBucket(), first);
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
  tracer.set_max_events(2);
  tracer.set_enabled(true);
  for (int i = 0; i < 5; ++i) {
    obs::Span span("test", "overflow");
  }
  tracer.set_enabled(false);
  EXPECT_EQ(tracer.size(), 2u);
  EXPECT_EQ(tracer.dropped(), 3u);

  const std::string json =
      obs::ToChromeTraceJson(tracer.Snapshot(), tracer.dropped());
  auto parsed = obs::ParseChromeTraceFull(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->events.size(), 2u);
  EXPECT_EQ(parsed->dropped_events, 3u);

  tracer.set_max_events(1u << 20);
  tracer.Clear();
}

}  // namespace
}  // namespace ppp

// Unit tests for the plan-lifecycle observability stores: q-error
// arithmetic (hand-computed pairs and the zero-row clamp), the PlanAudit
// environment default (its ring is a BoundedRing, tested in
// query_log_test.cc), and PlanHistory aggregation with plan-change and
// regression detection (warmup gating, once-per-displacement flagging, eviction —
// checked against a linear-scan reference model).

#include <gtest/gtest.h>
#include <stdlib.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "obs/plan_audit.h"
#include "obs/plan_history.h"

namespace ppp {
namespace {

using obs::CardinalityQError;
using obs::PlanAudit;
using obs::PlanHistory;
using obs::PlanHistoryEntry;
using obs::PlanOutcome;

TEST(CardinalityQErrorTest, HandComputedPairs) {
  // Over-estimate: est 100 vs actual 25 -> 100/25 = 4.
  EXPECT_DOUBLE_EQ(CardinalityQError(100.0, 25), 4.0);
  // Under-estimate is symmetric: est 25 vs actual 100 -> also 4.
  EXPECT_DOUBLE_EQ(CardinalityQError(25.0, 100), 4.0);
  // Perfect estimate -> 1.
  EXPECT_DOUBLE_EQ(CardinalityQError(42.0, 42), 1.0);
  // Fractional estimates round through the ratio, not the clamp.
  EXPECT_DOUBLE_EQ(CardinalityQError(2.5, 5), 2.0);
}

TEST(CardinalityQErrorTest, ZeroRowOperatorsClampToOneRow) {
  // An empty operator never divides by zero: actual clamps to 1 row.
  EXPECT_DOUBLE_EQ(CardinalityQError(100.0, 0), 100.0);
  // A zero (or sub-row) estimate clamps the same way.
  EXPECT_DOUBLE_EQ(CardinalityQError(0.0, 50), 50.0);
  EXPECT_DOUBLE_EQ(CardinalityQError(0.25, 50), 50.0);
  // Both zero: perfectly estimated emptiness.
  EXPECT_DOUBLE_EQ(CardinalityQError(0.0, 0), 1.0);
}

TEST(PlanAuditTest, EnvSwitchSetsTheDefault) {
  const char* saved = getenv("PPP_PLAN_AUDIT");
  const std::string restore = saved == nullptr ? "" : saved;
  ASSERT_EQ(unsetenv("PPP_PLAN_AUDIT"), 0);
  EXPECT_TRUE(PlanAudit().enabled());
  ASSERT_EQ(setenv("PPP_PLAN_AUDIT", "0", 1), 0);
  EXPECT_FALSE(PlanAudit().enabled());
  if (saved == nullptr) {
    unsetenv("PPP_PLAN_AUDIT");
  } else {
    setenv("PPP_PLAN_AUDIT", restore.c_str(), 1);
  }
}

TEST(PlanHistoryTest, AggregatesPerTextHashAndFingerprint) {
  PlanHistory history;
  history.Record(/*text_hash=*/7, /*fingerprint=*/100, 0.010, 5, 2.0, 1);
  history.Record(7, 100, 0.030, 7, 4.0, 2);
  history.Record(9, 200, 0.001, 0, 1.0, 3);
  ASSERT_EQ(history.size(), 2u);
  const std::vector<PlanHistoryEntry> all = history.Snapshot();
  ASSERT_EQ(all.size(), 2u);
  const PlanHistoryEntry& a = all[0];
  EXPECT_EQ(a.text_hash, 7u);
  EXPECT_EQ(a.plan_fingerprint, 100u);
  EXPECT_EQ(a.executions, 2u);
  EXPECT_DOUBLE_EQ(a.wall_mean, 0.020);
  EXPECT_DOUBLE_EQ(a.wall_p95, 0.030);  // Nearest-rank over {10ms, 30ms}.
  EXPECT_EQ(a.total_invocations, 12u);
  EXPECT_DOUBLE_EQ(a.max_qerror, 4.0);
  EXPECT_EQ(a.first_query_id, 1u);
  EXPECT_EQ(a.last_query_id, 2u);
  EXPECT_FALSE(a.plan_changed);
  EXPECT_FALSE(a.regressed);
  EXPECT_EQ(all[1].text_hash, 9u);
}

TEST(PlanHistoryTest, ZeroTextHashIsIgnored) {
  PlanHistory history;
  const PlanOutcome outcome = history.Record(0, 100, 0.010, 0, 1.0, 1);
  EXPECT_FALSE(outcome.plan_changed);
  EXPECT_EQ(history.size(), 0u);
}

TEST(PlanHistoryTest, DetectsPlanChangeOnFingerprintFlip) {
  PlanHistory history;
  EXPECT_FALSE(history.Record(7, 100, 0.010, 0, 1.0, 1).plan_changed);
  EXPECT_FALSE(history.Record(7, 100, 0.010, 0, 1.0, 2).plan_changed);
  // New fingerprint for the same text: a plan change, flagged exactly once.
  EXPECT_TRUE(history.Record(7, 200, 0.010, 0, 1.0, 3).plan_changed);
  EXPECT_FALSE(history.Record(7, 200, 0.010, 0, 1.0, 4).plan_changed);
  // Flipping back to a previously seen plan is a change too.
  EXPECT_TRUE(history.Record(7, 100, 0.010, 0, 1.0, 5).plan_changed);
  EXPECT_EQ(history.changed_total(), 2u);
  EXPECT_EQ(history.PlansFor(7), 2u);
  // Both fingerprints remain as distinct history entries.
  EXPECT_EQ(history.size(), 2u);
}

TEST(PlanHistoryTest, RegressionNeedsWarmupOnBothPlans) {
  PlanHistory history;
  ASSERT_EQ(PlanHistory::kWarmupExecutions, 3u);
  // Plan A establishes a 10 ms mean over three runs.
  for (uint64_t q = 1; q <= 3; ++q) history.Record(7, 100, 0.010, 0, 1.0, q);
  // Plan B is 10x slower but must not flag before its own warmup.
  EXPECT_FALSE(history.Record(7, 200, 0.100, 0, 1.0, 4).plan_regressed);
  EXPECT_FALSE(history.Record(7, 200, 0.100, 0, 1.0, 5).plan_regressed);
  const PlanOutcome third = history.Record(7, 200, 0.100, 0, 1.0, 6);
  EXPECT_TRUE(third.plan_regressed);
  EXPECT_DOUBLE_EQ(third.prior_wall_mean, 0.010);
  // Flagged once: later executions of the same regressed plan stay quiet.
  EXPECT_FALSE(history.Record(7, 200, 0.100, 0, 1.0, 7).plan_regressed);
  EXPECT_EQ(history.regressed_total(), 1u);
  const std::vector<PlanHistoryEntry> all = history.Snapshot();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_FALSE(all[0].regressed);
  EXPECT_TRUE(all[1].regressed);
  EXPECT_TRUE(all[1].plan_changed);
}

TEST(PlanHistoryTest, FasterNewPlanNeverRegresses) {
  PlanHistory history;
  for (uint64_t q = 1; q <= 3; ++q) history.Record(7, 100, 0.100, 0, 1.0, q);
  // The changed-to plan is 10x faster: no regression, ever.
  for (uint64_t q = 4; q <= 9; ++q) {
    EXPECT_FALSE(history.Record(7, 200, 0.010, 0, 1.0, q).plan_regressed);
  }
  EXPECT_EQ(history.regressed_total(), 0u);
}

TEST(PlanHistoryTest, SlightlySlowerPlanStaysUnderTheFactor) {
  PlanHistory history;
  ASSERT_DOUBLE_EQ(PlanHistory::kRegressionFactor, 1.5);
  for (uint64_t q = 1; q <= 3; ++q) history.Record(7, 100, 0.010, 0, 1.0, q);
  // 1.2x slower is within the factor: noisy, not regressed.
  for (uint64_t q = 4; q <= 7; ++q) {
    EXPECT_FALSE(history.Record(7, 200, 0.012, 0, 1.0, q).plan_regressed);
  }
  EXPECT_EQ(history.regressed_total(), 0u);
}

TEST(PlanHistoryTest, DisabledRecordsNothing) {
  PlanHistory history;
  history.set_enabled(false);
  EXPECT_FALSE(history.Record(7, 100, 0.010, 0, 1.0, 1).plan_changed);
  EXPECT_EQ(history.size(), 0u);
  history.set_enabled(true);
  history.Record(7, 100, 0.010, 0, 1.0, 2);
  EXPECT_EQ(history.size(), 1u);
}

TEST(PlanHistoryTest, EvictsOldestEntryBeyondTheCap) {
  PlanHistory history;
  history.set_max_entries(3);
  for (uint64_t i = 1; i <= 5; ++i) {
    history.Record(/*text_hash=*/i, /*fingerprint=*/i * 10, 0.001, 0, 1.0,
                   /*query_id=*/i);
  }
  EXPECT_EQ(history.size(), 3u);
  const std::vector<PlanHistoryEntry> all = history.Snapshot();
  ASSERT_EQ(all.size(), 3u);
  // The two oldest (query ids 1 and 2) were evicted.
  EXPECT_EQ(all[0].text_hash, 3u);
  EXPECT_EQ(all[2].text_hash, 5u);
}

TEST(PlanHistoryTest, LateWriterKeepsTheNewestLastQueryId) {
  // Two executions of one plan close out of order: the one holding the
  // smaller query id records second.
  PlanHistory history;
  history.set_max_entries(2);
  history.Record(/*text_hash=*/7, /*fingerprint=*/100, 0.001, 0, 1.0,
                 /*query_id=*/10);
  history.Record(7, 100, 0.001, 0, 1.0, /*query_id=*/7);
  std::vector<PlanHistoryEntry> all = history.Snapshot();
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0].first_query_id, 10u);
  EXPECT_EQ(all[0].last_query_id, 10u);
  EXPECT_GE(all[0].last_query_id, all[0].first_query_id);

  // Eviction still sees the entry as last used at id 10: an entry last
  // used at id 8 is the older one and goes first.
  history.Record(/*text_hash=*/8, /*fingerprint=*/200, 0.001, 0, 1.0, 8);
  history.Record(/*text_hash=*/9, /*fingerprint=*/300, 0.001, 0, 1.0, 11);
  all = history.Snapshot();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].text_hash, 7u);
  EXPECT_EQ(all[1].text_hash, 9u);
}

TEST(PlanHistoryTest, ClearDropsEntriesAndTotals) {
  PlanHistory history;
  history.Record(7, 100, 0.010, 0, 1.0, 1);
  history.Record(7, 200, 0.010, 0, 1.0, 2);
  EXPECT_EQ(history.changed_total(), 1u);
  history.Clear();
  EXPECT_EQ(history.size(), 0u);
  EXPECT_EQ(history.changed_total(), 0u);
  EXPECT_EQ(history.regressed_total(), 0u);
  // After Clear the first record is a fresh baseline, not a change.
  EXPECT_FALSE(history.Record(7, 300, 0.010, 0, 1.0, 3).plan_changed);
}

// TSan witness: concurrent Record() calls (distinct and shared text
// hashes) racing Snapshot() readers over the shared map.
TEST(PlanHistoryTest, ConcurrentRecordersAndSnapshotters) {
  PlanHistory history;
  history.set_max_entries(64);
  constexpr int kWriters = 4;
  constexpr uint64_t kPerWriter = 400;
  std::atomic<bool> go{false};
  std::atomic<uint64_t> next_query{0};
  std::vector<std::thread> threads;
  threads.reserve(kWriters + 1);
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&history, &go, &next_query, w] {
      while (!go.load()) {
      }
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        const uint64_t query_id = next_query.fetch_add(1) + 1;
        // Half the traffic shares text hash 1 (flipping between two
        // fingerprints), the rest spreads across per-writer hashes.
        if (i % 2 == 0) {
          history.Record(1, 100 + (i / 2) % 2, 0.001, 1, 2.0, query_id);
        } else {
          history.Record(10 + static_cast<uint64_t>(w), 300, 0.001, 1, 2.0,
                         query_id);
        }
      }
    });
  }
  threads.emplace_back([&history, &go] {
    while (!go.load()) {
    }
    for (int i = 0; i < 50; ++i) {
      for (const PlanHistoryEntry& e : history.Snapshot()) {
        ASSERT_GE(e.executions, 1u);
        ASSERT_GE(e.last_query_id, e.first_query_id);
      }
    }
  });
  go.store(true);
  for (std::thread& t : threads) t.join();
  uint64_t executions = 0;
  for (const PlanHistoryEntry& e : history.Snapshot()) {
    executions += e.executions;
  }
  EXPECT_EQ(executions, kWriters * kPerWriter);
}

/// PlanHistory's bookkeeping with the eviction victim found the original
/// way: a linear scan for the smallest last_query_id. The reference model
/// for the ordered-index eviction.
class LinearScanHistory {
 public:
  explicit LinearScanHistory(size_t max_entries)
      : max_entries_(max_entries) {}

  PlanOutcome Record(uint64_t text_hash, uint64_t fingerprint, double wall,
                     uint64_t invocations, uint64_t query_id) {
    PlanOutcome outcome;
    auto [current, first_plan] = current_.try_emplace(text_hash, fingerprint);
    const uint64_t previous = current->second;
    const bool changed = !first_plan && previous != fingerprint;
    current->second = fingerprint;
    auto [it, inserted] = rows_.try_emplace({text_hash, fingerprint});
    Row& row = it->second;
    if (inserted) row.first_query_id = query_id;
    if (changed) {
      outcome.plan_changed = true;
      row.plan_changed = true;
      row.displaced = previous;
      row.regressed = false;
    }
    ++row.executions;
    row.wall_sum += wall;
    row.invocations += invocations;
    row.last_query_id = query_id;
    if (!row.regressed && row.displaced != 0 &&
        row.executions >= PlanHistory::kWarmupExecutions) {
      auto prior = rows_.find({text_hash, row.displaced});
      if (prior != rows_.end() &&
          prior->second.executions >= PlanHistory::kWarmupExecutions) {
        const double prior_mean =
            prior->second.wall_sum /
            static_cast<double>(prior->second.executions);
        const double mean =
            row.wall_sum / static_cast<double>(row.executions);
        if (prior_mean > 0.0 &&
            mean > prior_mean * PlanHistory::kRegressionFactor) {
          row.regressed = true;
          outcome.plan_regressed = true;
        }
      }
    }
    while (rows_.size() > max_entries_) {
      auto oldest = rows_.begin();
      for (auto r = rows_.begin(); r != rows_.end(); ++r) {
        if (r->second.last_query_id < oldest->second.last_query_id) {
          oldest = r;
        }
      }
      auto cur = current_.find(oldest->first.first);
      if (cur != current_.end() && cur->second == oldest->first.second) {
        current_.erase(cur);
      }
      rows_.erase(oldest);
      ++evictions_;
    }
    return outcome;
  }

  /// Same order as PlanHistory::Snapshot(): first_query_id, fingerprint.
  std::vector<PlanHistoryEntry> Snapshot() const {
    std::vector<PlanHistoryEntry> out;
    for (const auto& [key, row] : rows_) {
      PlanHistoryEntry e;
      e.text_hash = key.first;
      e.plan_fingerprint = key.second;
      e.executions = row.executions;
      e.wall_mean = row.wall_sum / static_cast<double>(row.executions);
      e.total_invocations = row.invocations;
      e.first_query_id = row.first_query_id;
      e.last_query_id = row.last_query_id;
      e.plan_changed = row.plan_changed;
      e.regressed = row.regressed;
      out.push_back(e);
    }
    std::sort(out.begin(), out.end(),
              [](const PlanHistoryEntry& a, const PlanHistoryEntry& b) {
                if (a.first_query_id != b.first_query_id) {
                  return a.first_query_id < b.first_query_id;
                }
                return a.plan_fingerprint < b.plan_fingerprint;
              });
    return out;
  }

  bool Regressed(uint64_t text_hash, uint64_t fingerprint) const {
    auto it = rows_.find({text_hash, fingerprint});
    return it != rows_.end() && it->second.regressed;
  }

  uint64_t evictions() const { return evictions_; }

 private:
  struct Row {
    uint64_t executions = 0;
    double wall_sum = 0.0;
    uint64_t invocations = 0;
    uint64_t first_query_id = 0;
    uint64_t last_query_id = 0;
    bool plan_changed = false;
    bool regressed = false;
    uint64_t displaced = 0;
  };
  size_t max_entries_;
  std::map<std::pair<uint64_t, uint64_t>, Row> rows_;
  std::map<uint64_t, uint64_t> current_;
  uint64_t evictions_ = 0;
};

TEST(PlanHistoryTest, OrderedEvictionMatchesTheLinearScanModel) {
  constexpr size_t kCap = 64;
  PlanHistory history;
  history.set_max_entries(kCap);
  LinearScanHistory model(kCap);
  common::Random rng(20261017);
  // 48 texts x 3 plans = 144 possible keys against a cap of 64. Half the
  // calls re-touch one of the last few keys, so recency — not insertion
  // order — decides who is evicted; slower wall times on higher
  // fingerprints make plan flips regress now and then.
  std::vector<std::pair<uint64_t, uint64_t>> recent;
  uint64_t regressions = 0;
  uint64_t changes = 0;
  for (uint64_t query_id = 1; query_id <= 5000; ++query_id) {
    std::pair<uint64_t, uint64_t> key;
    if (!recent.empty() && rng.NextBool(0.5)) {
      key = recent[rng.NextUint64(recent.size())];
      if (rng.NextBool(0.2)) key.second = 1 + rng.NextUint64(3);
    } else {
      key = {1 + rng.NextUint64(48), 1 + rng.NextUint64(3)};
    }
    recent.push_back(key);
    if (recent.size() > 8) recent.erase(recent.begin());
    const double wall =
        0.001 * static_cast<double>(key.second) * (1.0 + rng.NextDouble());
    const uint64_t invocations = rng.NextUint64(5);
    const PlanOutcome got = history.Record(key.first, key.second, wall,
                                           invocations, 1.0, query_id);
    const PlanOutcome want =
        model.Record(key.first, key.second, wall, invocations, query_id);
    ASSERT_EQ(got.plan_changed, want.plan_changed) << "query " << query_id;
    ASSERT_EQ(got.plan_regressed, want.plan_regressed)
        << "query " << query_id;
    changes += got.plan_changed ? 1 : 0;
    regressions += got.plan_regressed ? 1 : 0;
    ASSERT_LE(history.size(), kCap);

    if (query_id % 50 != 0 && query_id != 5000) continue;
    const std::vector<PlanHistoryEntry> real = history.Snapshot();
    const std::vector<PlanHistoryEntry> ref = model.Snapshot();
    ASSERT_EQ(real.size(), ref.size()) << "query " << query_id;
    for (size_t i = 0; i < real.size(); ++i) {
      ASSERT_EQ(real[i].text_hash, ref[i].text_hash) << "query " << query_id;
      ASSERT_EQ(real[i].plan_fingerprint, ref[i].plan_fingerprint);
      ASSERT_EQ(real[i].executions, ref[i].executions);
      ASSERT_DOUBLE_EQ(real[i].wall_mean, ref[i].wall_mean);
      ASSERT_EQ(real[i].total_invocations, ref[i].total_invocations);
      ASSERT_EQ(real[i].first_query_id, ref[i].first_query_id);
      ASSERT_EQ(real[i].last_query_id, ref[i].last_query_id);
      ASSERT_EQ(real[i].plan_changed, ref[i].plan_changed);
      ASSERT_EQ(real[i].regressed, ref[i].regressed);
    }
    for (uint64_t text = 1; text <= 48; ++text) {
      for (uint64_t fingerprint = 1; fingerprint <= 3; ++fingerprint) {
        ASSERT_EQ(history.Regressed(text, fingerprint),
                  model.Regressed(text, fingerprint))
            << "text " << text << " plan " << fingerprint;
      }
    }
  }
  // The run must actually exercise what it compares.
  EXPECT_EQ(history.size(), kCap);
  EXPECT_GT(model.evictions(), 1000u);
  EXPECT_GT(changes, 100u);
  EXPECT_GT(regressions, 0u);
}

}  // namespace
}  // namespace ppp

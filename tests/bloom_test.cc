// Unit tests for the register-blocked Bloom filter and the BloomTransfer
// handoff: block layout, no false negatives, measured FPR within 2x the
// saturation-based estimate, single publication, and the runtime kill
// switch.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <random>
#include <vector>

#include "exec/bloom_filter.h"

namespace ppp::exec {
namespace {

std::vector<uint64_t> RandomHashes(size_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<uint64_t> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(rng());
  return out;
}

TEST(BloomFilterTest, BlockLayoutIsOneCacheLine) {
  EXPECT_EQ(BloomFilter::kWordsPerBlock, 8u);
  EXPECT_EQ(BloomFilter::kBitsPerBlock, 512u);
  for (const size_t keys : {1u, 100u, 5000u, 100000u}) {
    BloomFilter filter(keys);
    EXPECT_TRUE(std::has_single_bit(filter.num_blocks())) << keys;
    EXPECT_EQ(filter.num_bits(),
              filter.num_blocks() * BloomFilter::kBitsPerBlock);
    // ~16 bits per key before power-of-two rounding, so never less than
    // 8 bits per key after rounding down is impossible (we round up).
    EXPECT_GE(filter.num_bits(), keys * 16u) << keys;
  }
}

TEST(BloomFilterTest, NoFalseNegatives) {
  const std::vector<uint64_t> keys = RandomHashes(20000, /*seed=*/1);
  BloomFilter filter(keys.size());
  for (const uint64_t h : keys) filter.InsertHash(h);
  for (const uint64_t h : keys) {
    ASSERT_TRUE(filter.MightContainHash(h));
  }
}

TEST(BloomFilterTest, EachKeySetsAtMostEightBits) {
  BloomFilter filter(1000);
  EXPECT_EQ(filter.BitsSet(), 0u);
  uint64_t previous = 0;
  for (const uint64_t h : RandomHashes(100, /*seed=*/2)) {
    filter.InsertHash(h);
    const uint64_t now = filter.BitsSet();
    EXPECT_LE(now - previous, 8u);
    previous = now;
  }
}

TEST(BloomFilterTest, MeasuredFprWithinTwiceTheoretical) {
  const size_t n = 50000;
  const std::vector<uint64_t> keys = RandomHashes(n, /*seed=*/3);
  BloomFilter filter(n);
  for (const uint64_t h : keys) filter.InsertHash(h);

  // Theoretical FPR of a Bloom filter with k=8 at this load; the blocked
  // layout is slightly worse (bits concentrate per block), the test allows
  // 2x.
  const double bits = static_cast<double>(filter.num_bits());
  const double theoretical =
      std::pow(1.0 - std::exp(-8.0 * static_cast<double>(n) / bits), 8.0);

  const std::vector<uint64_t> absent = RandomHashes(200000, /*seed=*/999);
  size_t false_positives = 0;
  for (const uint64_t h : absent) {
    if (filter.MightContainHash(h)) ++false_positives;
  }
  const double measured =
      static_cast<double>(false_positives) / static_cast<double>(absent.size());
  EXPECT_LE(measured, 2.0 * theoretical + 1e-4)
      << "measured=" << measured << " theoretical=" << theoretical;
  // The saturation-based estimate must be in the same ballpark.
  EXPECT_LE(measured, 2.0 * filter.EstimatedFpr() + 1e-4);
}

TEST(BloomTransferTest, UnpublishedPassesEverything) {
  BloomTransfer transfer("r", "key", "s", "key");
  EXPECT_EQ(transfer.ActiveFilter(), nullptr);
  EXPECT_FALSE(transfer.published());
  EXPECT_EQ(transfer.Site(), "r.key <- s.key");
}

TEST(BloomTransferTest, PublishesExactlyOnce) {
  BloomTransfer transfer("r", "key", "s", "key");
  auto first = std::make_unique<BloomFilter>(10);
  first->InsertHash(42);
  const BloomFilter* raw = first.get();
  transfer.Publish(std::move(first));
  EXPECT_EQ(transfer.ActiveFilter(), raw);
  // A rescan re-publishing is ignored: the original filter stays.
  transfer.Publish(std::make_unique<BloomFilter>(10));
  EXPECT_EQ(transfer.ActiveFilter(), raw);
}

TEST(BloomTransferTest, KillSwitchFiresOnUselessFilter) {
  BloomTransfer transfer("r", "key", "s", "key");
  transfer.min_probes = 100;
  transfer.kill_pass_rate = 0.95;
  transfer.Publish(std::make_unique<BloomFilter>(10));
  ASSERT_NE(transfer.ActiveFilter(), nullptr);

  // Below min_probes nothing happens even at 100% pass.
  transfer.RecordProbes(50, 50);
  EXPECT_NE(transfer.ActiveFilter(), nullptr);
  EXPECT_FALSE(transfer.killed());

  // Crossing min_probes with pass rate above the threshold kills it.
  transfer.RecordProbes(60, 60);
  EXPECT_TRUE(transfer.killed());
  EXPECT_EQ(transfer.ActiveFilter(), nullptr);
}

TEST(BloomTransferTest, SelectiveFilterSurvives) {
  BloomTransfer transfer("r", "key", "s", "key");
  transfer.min_probes = 100;
  transfer.kill_pass_rate = 0.95;
  transfer.Publish(std::make_unique<BloomFilter>(10));
  transfer.RecordProbes(1000, 400);  // 40% pass rate: pruning plenty.
  EXPECT_FALSE(transfer.killed());
  ASSERT_NE(transfer.ActiveFilter(), nullptr);
  EXPECT_EQ(transfer.probed(), 1000u);
  EXPECT_EQ(transfer.passed(), 400u);
  EXPECT_EQ(transfer.pruned(), 600u);
}

TEST(BloomTransferTest, MeasuredFprFromJoinMissFeedback) {
  BloomTransfer transfer("r", "key", "s", "key");
  transfer.Publish(std::make_unique<BloomFilter>(10));
  EXPECT_LT(transfer.MeasuredFpr(), 0.0);  // No negatives observed yet.
  transfer.RecordProbes(1000, 100);  // 900 pruned.
  for (int i = 0; i < 100; ++i) transfer.RecordJoinMiss();
  // 100 false positives out of 900 + 100 = 1000 negatives.
  EXPECT_DOUBLE_EQ(transfer.MeasuredFpr(), 0.1);
}

}  // namespace
}  // namespace ppp::exec

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/random.h"
#include "storage/btree.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"

namespace ppp::storage {
namespace {

class BTreeTest : public ::testing::Test {
 protected:
  BTreeTest() : pool_(&disk_, 64), tree_(&pool_) {}
  DiskManager disk_;
  BufferPool pool_;
  BTree tree_;
};

TEST_F(BTreeTest, EmptyTree) {
  EXPECT_TRUE(tree_.empty());
  EXPECT_EQ(tree_.Height(), 0);
  EXPECT_TRUE(tree_.Lookup(5).empty());
  EXPECT_TRUE(tree_.LookupRange(0, 100).empty());
}

TEST_F(BTreeTest, SingleInsertLookup) {
  tree_.Insert(42, {7, 3});
  const std::vector<RecordId> hits = tree_.Lookup(42);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], (RecordId{7, 3}));
  EXPECT_TRUE(tree_.Lookup(41).empty());
  EXPECT_EQ(tree_.Height(), 1);
}

TEST_F(BTreeTest, DuplicateKeysAllReturnedInRidOrder) {
  tree_.Insert(5, {30, 0});
  tree_.Insert(5, {10, 0});
  tree_.Insert(5, {20, 0});
  const std::vector<RecordId> hits = tree_.Lookup(5);
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0].page_id, 10u);
  EXPECT_EQ(hits[1].page_id, 20u);
  EXPECT_EQ(hits[2].page_id, 30u);
}

TEST_F(BTreeTest, RangeLookupInclusive) {
  for (int64_t k = 0; k < 20; ++k) {
    tree_.Insert(k, {static_cast<PageId>(k), 0});
  }
  const std::vector<RecordId> hits = tree_.LookupRange(5, 8);
  ASSERT_EQ(hits.size(), 4u);
  EXPECT_EQ(hits.front().page_id, 5u);
  EXPECT_EQ(hits.back().page_id, 8u);
  EXPECT_TRUE(tree_.LookupRange(8, 5).empty());  // Inverted range.
}

TEST_F(BTreeTest, NegativeKeys) {
  tree_.Insert(-10, {1, 0});
  tree_.Insert(0, {2, 0});
  tree_.Insert(10, {3, 0});
  EXPECT_EQ(tree_.Lookup(-10).size(), 1u);
  const std::vector<RecordId> hits = tree_.LookupRange(-100, 0);
  EXPECT_EQ(hits.size(), 2u);
}

TEST_F(BTreeTest, SplitsGrowHeight) {
  // A leaf holds ~254 entries; 10 000 inserts force internal splits.
  for (int64_t i = 0; i < 10000; ++i) {
    tree_.Insert(i, {static_cast<PageId>(i), 0});
  }
  EXPECT_GE(tree_.Height(), 2);
  EXPECT_EQ(tree_.NumEntries(), 10000u);
  // Every key still findable.
  for (int64_t i = 0; i < 10000; i += 97) {
    ASSERT_EQ(tree_.Lookup(i).size(), 1u) << "key " << i;
  }
  // Full range scan is complete and ordered.
  const std::vector<RecordId> all = tree_.LookupRange(0, 9999);
  ASSERT_EQ(all.size(), 10000u);
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_LT(all[i - 1].page_id, all[i].page_id);
  }
}

TEST_F(BTreeTest, DescendingInsertOrder) {
  for (int64_t i = 999; i >= 0; --i) {
    tree_.Insert(i, {static_cast<PageId>(i), 0});
  }
  for (int64_t i = 0; i < 1000; i += 13) {
    ASSERT_EQ(tree_.Lookup(i).size(), 1u);
  }
}

TEST_F(BTreeTest, HeavyDuplicatesSpanLeaves) {
  // 1000 entries of the same key span several leaves.
  for (uint32_t i = 0; i < 1000; ++i) {
    tree_.Insert(7, {i, 0});
  }
  tree_.Insert(6, {0, 0});
  tree_.Insert(8, {0, 0});
  EXPECT_EQ(tree_.Lookup(7).size(), 1000u);
  EXPECT_EQ(tree_.Lookup(6).size(), 1u);
  EXPECT_EQ(tree_.Lookup(8).size(), 1u);
}

/// Property test: the B-tree agrees with a reference std::multimap under
/// random workloads of varying size and key skew.
class BTreePropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int64_t>> {};

TEST_P(BTreePropertyTest, MatchesReferenceMultimap) {
  const int inserts = std::get<0>(GetParam());
  const int64_t key_range = std::get<1>(GetParam());

  DiskManager disk;
  BufferPool pool(&disk, 64);
  BTree tree(&pool);
  std::multimap<int64_t, uint64_t> reference;
  common::Random rng(static_cast<uint64_t>(inserts) * 31 +
                     static_cast<uint64_t>(key_range));

  for (int i = 0; i < inserts; ++i) {
    const int64_t key =
        rng.NextInt64(-key_range, key_range);
    const RecordId rid{static_cast<PageId>(i), 0};
    tree.Insert(key, rid);
    reference.emplace(key, rid.Pack());
  }

  // Point lookups agree on 50 probe keys.
  for (int probe = 0; probe < 50; ++probe) {
    const int64_t key = rng.NextInt64(-key_range, key_range);
    const auto [lo, hi] = reference.equal_range(key);
    const size_t expected = static_cast<size_t>(std::distance(lo, hi));
    ASSERT_EQ(tree.Lookup(key).size(), expected) << "key " << key;
  }

  // A handful of range scans agree in size and ordering.
  for (int probe = 0; probe < 10; ++probe) {
    int64_t a = rng.NextInt64(-key_range, key_range);
    int64_t b = rng.NextInt64(-key_range, key_range);
    if (a > b) std::swap(a, b);
    const size_t expected = static_cast<size_t>(std::distance(
        reference.lower_bound(a), reference.upper_bound(b)));
    ASSERT_EQ(tree.LookupRange(a, b).size(), expected)
        << "range [" << a << "," << b << "]";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, BTreePropertyTest,
    ::testing::Combine(::testing::Values(100, 1000, 5000),
                       ::testing::Values<int64_t>(10, 1000, 1000000)));

TEST(BTreeIoTest, LookupsCostFewPages) {
  DiskManager disk;
  BufferPool pool(&disk, 512);
  BTree tree(&pool);
  for (int64_t i = 0; i < 50000; ++i) {
    tree.Insert(i, {static_cast<PageId>(i), 0});
  }
  pool.EvictAll();
  ThreadIo().Reset();
  tree.Lookup(25000);
  // One descent: height pages (~3), all cold.
  EXPECT_LE(ThreadIo().TotalReads(), 4u);
  EXPECT_GE(ThreadIo().TotalReads(), 2u);
}

}  // namespace
}  // namespace ppp::storage

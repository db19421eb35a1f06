#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <utility>

#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/heap_file.h"

namespace ppp::storage {
namespace {

TEST(DiskManagerTest, AllocateAndRoundTrip) {
  DiskManager disk;
  const PageId a = disk.AllocatePage();
  const PageId b = disk.AllocatePage();
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  Page page;
  page.bytes()[0] = 0xAB;
  disk.WritePage(a, page);
  Page read;
  disk.ReadPage(a, &read);
  EXPECT_EQ(read.bytes()[0], 0xAB);
  disk.ReadPage(b, &read);
  EXPECT_EQ(read.bytes()[0], 0);  // Fresh page is zeroed.
}

TEST(BufferPoolTest, HitDoesNotReRead) {
  DiskManager disk;
  BufferPool pool(&disk, 4);
  ThreadIo().Reset();
  Page* page = nullptr;
  const PageId id = pool.NewPage(&page);
  pool.UnpinPage(id, true);
  pool.FlushAll();

  EXPECT_EQ(ThreadIo().TotalReads(), 0u);
  pool.FetchPage(id);
  pool.UnpinPage(id, false);
  EXPECT_EQ(ThreadIo().buffer_hits, 1u);  // Still resident.
  EXPECT_EQ(ThreadIo().TotalReads(), 0u);
}

TEST(BufferPoolTest, EvictionWritesBackDirtyPages) {
  DiskManager disk;
  BufferPool pool(&disk, 2);
  Page* p = nullptr;
  const PageId a = pool.NewPage(&p);
  p->bytes()[0] = 0x42;
  pool.UnpinPage(a, true);

  // Fill the pool so `a` is evicted.
  for (int i = 0; i < 3; ++i) {
    Page* q = nullptr;
    const PageId id = pool.NewPage(&q);
    pool.UnpinPage(id, false);
  }
  Page read;
  disk.ReadPage(a, &read);
  EXPECT_EQ(read.bytes()[0], 0x42);

  // Re-fetch is a miss now.
  const uint64_t reads_before = ThreadIo().TotalReads();
  Page* back = pool.FetchPage(a);
  EXPECT_EQ(back->bytes()[0], 0x42);
  pool.UnpinPage(a, false);
  EXPECT_EQ(ThreadIo().TotalReads(), reads_before + 1);
}

TEST(BufferPoolTest, SequentialVsRandomClassification) {
  DiskManager disk;
  BufferPool pool(&disk, 2);
  std::vector<PageId> ids;
  for (int i = 0; i < 10; ++i) {
    Page* p = nullptr;
    ids.push_back(pool.NewPage(&p));
    pool.UnpinPage(ids.back(), false);
  }
  pool.EvictAll();
  ThreadIo().Reset();

  // Forward scan: first read random, rest sequential.
  for (const PageId id : ids) {
    pool.FetchPage(id);
    pool.UnpinPage(id, false);
  }
  EXPECT_EQ(ThreadIo().random_reads, 1u);
  EXPECT_EQ(ThreadIo().sequential_reads, 9u);

  pool.EvictAll();
  ThreadIo().Reset();
  // Backward scan: all random.
  for (auto it = ids.rbegin(); it != ids.rend(); ++it) {
    pool.FetchPage(*it);
    pool.UnpinPage(*it, false);
  }
  EXPECT_EQ(ThreadIo().random_reads, 10u);
  EXPECT_EQ(ThreadIo().sequential_reads, 0u);
}

TEST(BufferPoolTest, EvictAllSkipsPinnedPages) {
  DiskManager disk;
  BufferPool pool(&disk, 4);
  Page* p = nullptr;
  const PageId pinned = pool.NewPage(&p);
  Page* q = nullptr;
  const PageId unpinned = pool.NewPage(&q);
  pool.UnpinPage(unpinned, false);

  pool.EvictAll();
  ThreadIo().Reset();
  pool.FetchPage(pinned);  // Still resident: hit.
  EXPECT_EQ(ThreadIo().buffer_hits, 1u);
  pool.FetchPage(unpinned);  // Evicted: miss.
  EXPECT_EQ(ThreadIo().TotalReads(), 1u);
  pool.UnpinPage(pinned, false);
  pool.UnpinPage(pinned, false);
  pool.UnpinPage(unpinned, false);
}

TEST(PageGuardTest, UnpinsOnScopeExit) {
  DiskManager disk;
  BufferPool pool(&disk, 1);  // One frame: a leaked pin would deadlock.
  Page* p = nullptr;
  const PageId a = pool.NewPage(&p);
  pool.UnpinPage(a, true);
  {
    PageGuard guard(&pool, a);
    guard.MarkDirty();
  }
  // The single frame must be reusable now.
  Page* q = nullptr;
  const PageId b = pool.NewPage(&q);
  pool.UnpinPage(b, false);
  SUCCEED();
}

TEST(RecordIdTest, PackUnpackRoundTrip) {
  RecordId rid{123456, 789};
  EXPECT_EQ(RecordId::Unpack(rid.Pack()), rid);
  RecordId zero{0, 0};
  EXPECT_EQ(RecordId::Unpack(zero.Pack()), zero);
}

TEST(RecordIdTest, Ordering) {
  EXPECT_LT((RecordId{1, 5}), (RecordId{2, 0}));
  EXPECT_LT((RecordId{1, 5}), (RecordId{1, 6}));
  EXPECT_FALSE((RecordId{1, 5}) < (RecordId{1, 5}));
}

class HeapFileTest : public ::testing::Test {
 protected:
  HeapFileTest() : pool_(&disk_, 16), file_(&pool_) {}
  DiskManager disk_;
  BufferPool pool_;
  HeapFile file_;
};

TEST_F(HeapFileTest, InsertAndRead) {
  auto rid = file_.Insert("hello");
  ASSERT_TRUE(rid.ok());
  auto back = file_.Read(*rid);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, "hello");
}

TEST_F(HeapFileTest, ManyRecordsSpillAcrossPages) {
  const std::string record(100, 'r');
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(file_.Insert(record + std::to_string(i)).ok());
  }
  EXPECT_EQ(file_.NumRecords(), 1000u);
  EXPECT_GT(file_.NumPages(), 20u);  // ~38 records of ~104 bytes per page.

  // Scan returns every record in insertion order.
  HeapFile::Iterator it = file_.Scan();
  RecordId rid;
  std::string bytes;
  int count = 0;
  while (it.Next(&rid, &bytes)) {
    EXPECT_EQ(bytes, record + std::to_string(count));
    ++count;
  }
  EXPECT_EQ(count, 1000);
}

TEST_F(HeapFileTest, ReadBadSlotFails) {
  ASSERT_TRUE(file_.Insert("x").ok());
  EXPECT_FALSE(file_.Read({0, 99}).ok());
}

TEST_F(HeapFileTest, OversizedRecordRejected) {
  EXPECT_FALSE(file_.Insert(std::string(5000, 'x')).ok());
}

TEST_F(HeapFileTest, MaxSizedRecordFits) {
  // Page minus header minus one slot.
  EXPECT_TRUE(file_.Insert(std::string(4088, 'x')).ok());
  EXPECT_EQ(file_.NumPages(), 1u);
}

TEST_F(HeapFileTest, EmptyRecordsSupported) {
  auto rid = file_.Insert("");
  ASSERT_TRUE(rid.ok());
  auto back = file_.Read(*rid);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, "");
}

TEST_F(HeapFileTest, ScanOfEmptyFile) {
  HeapFile::Iterator it = file_.Scan();
  RecordId rid;
  std::string bytes;
  EXPECT_FALSE(it.Next(&rid, &bytes));
}

TEST_F(HeapFileTest, NextViewMatchesCopyingScanAcrossPages) {
  const std::string record(100, 'r');
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(file_.Insert(record + std::to_string(i)).ok());
  }
  HeapFile::Iterator it = file_.Scan();
  RecordId rid;
  std::string_view view;
  int count = 0;
  while (it.NextView(&rid, &view)) {
    // The view stays valid until the next NextView() call.
    EXPECT_EQ(view, record + std::to_string(count));
    ++count;
  }
  EXPECT_EQ(count, 1000);
}

TEST_F(HeapFileTest, NextViewFetchesOncePerPage) {
  const std::string record(100, 'r');
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(file_.Insert(record).ok());
  }
  ThreadIo().Reset();
  HeapFile::Iterator it = file_.Scan();
  RecordId rid;
  std::string_view view;
  while (it.NextView(&rid, &view)) {
  }
  // One pin per page, not per record.
  EXPECT_EQ(ThreadIo().buffer_hits + ThreadIo().TotalReads(),
            file_.NumPages());
}

TEST_F(HeapFileTest, MovedIteratorKeepsPositionAndRepins) {
  const std::string record(100, 'r');
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(file_.Insert(record + std::to_string(i)).ok());
  }
  HeapFile::Iterator it = file_.Scan();
  RecordId rid;
  std::string_view view;
  ASSERT_TRUE(it.NextView(&rid, &view));
  HeapFile::Iterator moved = std::move(it);
  ASSERT_TRUE(moved.NextView(&rid, &view));
  EXPECT_EQ(view, record + "1");
}

}  // namespace
}  // namespace ppp::storage

#ifndef PPP_STORAGE_BUFFER_POOL_H_
#define PPP_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "storage/disk_manager.h"
#include "storage/io_stats.h"
#include "storage/page.h"
#include "storage/record_id.h"

namespace ppp::storage {

/// A fixed-capacity LRU buffer pool over a DiskManager.
///
/// All page access in the engine goes through FetchPage/UnpinPage, so the
/// pool counts all physical page traffic: into the calling thread's
/// ThreadIo() and the process-wide storage.buffer_pool.* counters. Misses
/// are classified sequential vs random by adjacency to the previous missed
/// page, mirroring how a disk arm would behave for a table scan.
///
/// Thread-safe: a single mutex guards the page table and frames,
/// so a background ANALYZE can scan a table while queries run. Pinned
/// page *contents* are not further synchronized — the engine only writes
/// pages single-threaded (loads, index builds), and concurrent readers of
/// immutable heap pages need no coordination.
class BufferPool {
 public:
  /// `capacity` is the number of page frames. The Montage experiments used
  /// 32 MB of memory against a 110 MB database; workloads here pick a
  /// capacity that similarly cannot hold the working set.
  BufferPool(DiskManager* disk, size_t capacity);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  ~BufferPool();

  /// Returns a pinned in-pool frame for `page_id`, reading it from disk on
  /// a miss (possibly evicting an unpinned page). Aborts if every frame is
  /// pinned — that is an engine bug, not an expected runtime condition.
  Page* FetchPage(PageId page_id);

  /// Releases one pin; `dirty` marks the frame for write-back on eviction.
  void UnpinPage(PageId page_id, bool dirty);

  /// Allocates a new page on disk and returns it pinned via `*out`.
  PageId NewPage(Page** out);

  /// Writes back every dirty frame.
  void FlushAll();

  /// Evicts every unpinned frame (flushing dirty ones). Used between
  /// experiment runs so each query starts cold, as the paper's repeated
  /// single-query measurements would.
  void EvictAll();

  size_t capacity() const { return frames_.size(); }

 private:
  struct Frame {
    PageId page_id = kInvalidPageId;
    int pin_count = 0;
    bool dirty = false;
    uint64_t lru_tick = 0;
    Page page;
  };

  /// Returns the index of a free or evictable frame; flushes the victim if
  /// dirty. Aborts when all frames are pinned. Caller holds mu_.
  size_t FindVictim();

  /// Caller holds mu_.
  void RecordMissRead(PageId page_id);

  std::mutex mu_;
  DiskManager* disk_;
  std::vector<Frame> frames_;
  std::unordered_map<PageId, size_t> page_table_;
  uint64_t tick_ = 0;
  PageId last_missed_page_ = kInvalidPageId;
};

/// RAII pin guard: fetches on construction, unpins on destruction.
class PageGuard {
 public:
  PageGuard(BufferPool* pool, PageId page_id)
      : pool_(pool), page_id_(page_id), page_(pool->FetchPage(page_id)) {}

  /// Adopts an already-pinned page (e.g. from BufferPool::NewPage).
  PageGuard(BufferPool* pool, PageId page_id, Page* page)
      : pool_(pool), page_id_(page_id), page_(page) {}

  ~PageGuard() { Release(); }

  PageGuard(const PageGuard&) = delete;
  PageGuard& operator=(const PageGuard&) = delete;
  PageGuard(PageGuard&& other) noexcept
      : pool_(other.pool_),
        page_id_(other.page_id_),
        page_(other.page_),
        dirty_(other.dirty_) {
    other.page_ = nullptr;
  }

  Page* get() { return page_; }
  const Page* get() const { return page_; }
  PageId page_id() const { return page_id_; }

  /// Marks the page for write-back when the guard releases.
  void MarkDirty() { dirty_ = true; }

  /// Unpins early (idempotent).
  void Release() {
    if (page_ != nullptr) {
      pool_->UnpinPage(page_id_, dirty_);
      page_ = nullptr;
    }
  }

 private:
  BufferPool* pool_;
  PageId page_id_;
  Page* page_;
  bool dirty_ = false;
};

}  // namespace ppp::storage

#endif  // PPP_STORAGE_BUFFER_POOL_H_

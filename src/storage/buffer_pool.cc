#include "storage/buffer_pool.h"

#include "common/logging.h"
#include "obs/metrics.h"

namespace ppp::storage {

namespace {
// Process-wide I/O-class counters, so a metrics snapshot sees all pools
// and threads at once. Pointers from the registry are
// stable for the process lifetime.
obs::Counter* HitCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("storage.buffer_pool.hits");
  return c;
}
obs::Counter* SeqReadCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "storage.buffer_pool.sequential_reads");
  return c;
}
obs::Counter* RandReadCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "storage.buffer_pool.random_reads");
  return c;
}
obs::Counter* WriteCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("storage.buffer_pool.writes");
  return c;
}
}  // namespace

BufferPool::BufferPool(DiskManager* disk, size_t capacity) : disk_(disk) {
  PPP_CHECK(capacity > 0);
  frames_.resize(capacity);
  page_table_.reserve(capacity);
}

BufferPool::~BufferPool() { FlushAll(); }

Page* BufferPool::FetchPage(PageId page_id) {
  std::lock_guard<std::mutex> lock(mu_);
  ++tick_;
  auto it = page_table_.find(page_id);
  if (it != page_table_.end()) {
    Frame& frame = frames_[it->second];
    ++frame.pin_count;
    frame.lru_tick = tick_;
    ++ThreadIo().buffer_hits;
    HitCounter()->Increment();
    return &frame.page;
  }
  const size_t idx = FindVictim();
  Frame& frame = frames_[idx];
  frame.page_id = page_id;
  frame.pin_count = 1;
  frame.dirty = false;
  frame.lru_tick = tick_;
  disk_->ReadPage(page_id, &frame.page);
  RecordMissRead(page_id);
  page_table_[page_id] = idx;
  return &frame.page;
}

void BufferPool::UnpinPage(PageId page_id, bool dirty) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = page_table_.find(page_id);
  PPP_CHECK(it != page_table_.end()) << "unpin of unmapped page " << page_id;
  Frame& frame = frames_[it->second];
  PPP_CHECK(frame.pin_count > 0) << "unpin of unpinned page " << page_id;
  --frame.pin_count;
  frame.dirty = frame.dirty || dirty;
}

PageId BufferPool::NewPage(Page** out) {
  std::lock_guard<std::mutex> lock(mu_);
  ++tick_;
  const PageId page_id = disk_->AllocatePage();
  const size_t idx = FindVictim();
  Frame& frame = frames_[idx];
  frame.page_id = page_id;
  frame.pin_count = 1;
  frame.dirty = true;  // Fresh pages must reach disk even if never modified
                       // again, or a later miss would read stale zeroes.
  frame.lru_tick = tick_;
  frame.page = Page();
  page_table_[page_id] = idx;
  *out = &frame.page;
  return page_id;
}

void BufferPool::FlushAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (Frame& frame : frames_) {
    if (frame.page_id != kInvalidPageId && frame.dirty) {
      disk_->WritePage(frame.page_id, frame.page);
      frame.dirty = false;
      ++ThreadIo().writes;
      WriteCounter()->Increment();
    }
  }
}

void BufferPool::EvictAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (Frame& frame : frames_) {
    if (frame.page_id == kInvalidPageId || frame.pin_count > 0) continue;
    if (frame.dirty) {
      disk_->WritePage(frame.page_id, frame.page);
      ++ThreadIo().writes;
      WriteCounter()->Increment();
    }
    page_table_.erase(frame.page_id);
    frame = Frame();
  }
  last_missed_page_ = kInvalidPageId;
}

size_t BufferPool::FindVictim() {
  size_t victim = frames_.size();
  uint64_t oldest = UINT64_MAX;
  for (size_t i = 0; i < frames_.size(); ++i) {
    const Frame& frame = frames_[i];
    if (frame.page_id == kInvalidPageId) return i;  // Free frame.
    if (frame.pin_count == 0 && frame.lru_tick < oldest) {
      oldest = frame.lru_tick;
      victim = i;
    }
  }
  PPP_CHECK(victim < frames_.size())
      << "buffer pool exhausted: all " << frames_.size() << " frames pinned";
  Frame& frame = frames_[victim];
  if (frame.dirty) {
    disk_->WritePage(frame.page_id, frame.page);
    ++ThreadIo().writes;
    WriteCounter()->Increment();
  }
  page_table_.erase(frame.page_id);
  frame = Frame();
  return victim;
}

void BufferPool::RecordMissRead(PageId page_id) {
  if (last_missed_page_ != kInvalidPageId &&
      page_id == last_missed_page_ + 1) {
    ++ThreadIo().sequential_reads;
    SeqReadCounter()->Increment();
  } else {
    ++ThreadIo().random_reads;
    RandReadCounter()->Increment();
  }
  last_missed_page_ = page_id;
}

}  // namespace ppp::storage

#ifndef PPP_STORAGE_HEAP_FILE_H_
#define PPP_STORAGE_HEAP_FILE_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/record_id.h"

namespace ppp::storage {

/// An unordered file of variable-length records in slotted pages.
///
/// Page layout:
///   [u16 slot_count][u16 free_end][slot 0][slot 1]... | free ... |records]
/// where each slot is {u16 offset, u16 length} and record bytes grow down
/// from the end of the page. The engine's workload is load-then-query, so
/// HeapFile supports insert, point read, and full scan (no delete/update).
class HeapFile {
 public:
  explicit HeapFile(BufferPool* pool) : pool_(pool) {}

  HeapFile(const HeapFile&) = delete;
  HeapFile& operator=(const HeapFile&) = delete;

  /// Appends a record; returns its address. Fails with InvalidArgument if
  /// the record cannot fit in an empty page.
  common::Result<RecordId> Insert(const std::string& record);

  /// Reads the record at `rid`. Fails with NotFound on a bad address.
  common::Result<std::string> Read(RecordId rid) const;

  size_t NumRecords() const { return num_records_; }
  size_t NumPages() const { return pages_.size(); }
  const std::vector<PageId>& pages() const { return pages_; }

  /// Forward scan over all records in physical order. The iterator pins one
  /// page at a time, so the underlying file must outlive it and must not be
  /// mutated during iteration.
  class Iterator {
   public:
    explicit Iterator(const HeapFile* file) : file_(file) {}

    /// Moves transfer the scan position but drop the cached page pin
    /// (PageGuard is not assignable); NextView() re-pins lazily.
    Iterator(Iterator&& other) noexcept
        : file_(other.file_),
          page_index_(other.page_index_),
          slot_(other.slot_) {
      other.view_guard_.reset();
    }
    Iterator& operator=(Iterator&& other) noexcept {
      file_ = other.file_;
      page_index_ = other.page_index_;
      slot_ = other.slot_;
      view_guard_.reset();
      other.view_guard_.reset();
      return *this;
    }

    /// Advances to the next record; returns false at end of file.
    bool Next(RecordId* rid, std::string* record);

    /// Zero-copy advance for tight decode loops (scans, ANALYZE): `record`
    /// views bytes inside the current page, which stays pinned until the
    /// scan leaves the page, Unpin(), or the iterator's destruction — one
    /// buffer-pool fetch per page instead of one per record. The view is
    /// invalidated by the next NextView() or Unpin().
    bool NextView(RecordId* rid, std::string_view* record);

    /// Drops the pin NextView() holds; the next NextView() re-pins the
    /// current page. Callers that fetch other pages between records call
    /// this first, so the held pin never changes what the pool evicts.
    void Unpin() { view_guard_.reset(); }

   private:
    const HeapFile* file_;
    size_t page_index_ = 0;
    uint16_t slot_ = 0;
    /// Pin held across NextView() calls; empty on the copying Next() path.
    std::optional<PageGuard> view_guard_;
  };

  Iterator Scan() const { return Iterator(this); }

 private:
  friend class Iterator;

  /// Maximum record size storable in an empty page.
  static size_t MaxRecordSize();

  BufferPool* pool_;
  std::vector<PageId> pages_;
  size_t num_records_ = 0;
};

}  // namespace ppp::storage

#endif  // PPP_STORAGE_HEAP_FILE_H_

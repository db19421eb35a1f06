#ifndef PPP_OBS_BOUNDED_RING_H_
#define PPP_OBS_BOUNDED_RING_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

namespace ppp::obs {

/// Thread-safe fixed-capacity ring of records, oldest first: past capacity
/// an append overwrites the oldest record (counted in evicted()). The
/// backing store of the introspection logs (QueryLog, PlanAudit). Appends
/// come from whichever session thread finishes a statement; snapshots are
/// taken by concurrent introspection scans.
template <typename T>
class BoundedRing {
 public:
  explicit BoundedRing(size_t capacity)
      : ring_(std::max<size_t>(capacity, 1)) {}

  void Append(T record) {
    std::lock_guard<std::mutex> lock(mu_);
    if (size_ == ring_.size()) {
      // Full: the slot at head_ holds the oldest record; overwrite it and
      // advance the ring.
      ring_[head_] = std::move(record);
      head_ = (head_ + 1) % ring_.size();
      evicted_.fetch_add(1, std::memory_order_relaxed);
    } else {
      ring_[(head_ + size_) % ring_.size()] = std::move(record);
      ++size_;
    }
    total_.fetch_add(1, std::memory_order_relaxed);
  }

  /// All retained records, oldest first.
  std::vector<T> Snapshot() const { return Tail(SIZE_MAX); }

  /// The most recent `n` records, oldest first.
  std::vector<T> Tail(size_t n) const {
    std::lock_guard<std::mutex> lock(mu_);
    const size_t count = std::min(n, size_);
    std::vector<T> out;
    out.reserve(count);
    for (size_t i = size_ - count; i < size_; ++i) {
      out.push_back(ring_[(head_ + i) % ring_.size()]);
    }
    return out;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return size_;
  }

  /// Records ever appended (including since-evicted ones).
  uint64_t total() const { return total_.load(std::memory_order_relaxed); }

  /// Records overwritten by ring wraparound.
  uint64_t evicted() const {
    return evicted_.load(std::memory_order_relaxed);
  }

  /// Shrinks or grows the ring (to at least one slot); shrinking keeps the
  /// newest records.
  void set_capacity(size_t n) {
    n = std::max<size_t>(n, 1);
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<T> fresh(n);
    const size_t keep = std::min(size_, n);
    for (size_t i = 0; i < keep; ++i) {
      fresh[i] = std::move(ring_[(head_ + (size_ - keep) + i) % ring_.size()]);
    }
    ring_ = std::move(fresh);
    head_ = 0;
    size_ = keep;
  }

  size_t capacity() const {
    std::lock_guard<std::mutex> lock(mu_);
    return ring_.size();
  }

  /// Drops all retained records (releasing what they own) and zeroes
  /// total/evicted.
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    for (T& r : ring_) r = T{};
    head_ = 0;
    size_ = 0;
    total_.store(0, std::memory_order_relaxed);
    evicted_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> total_{0};
  std::atomic<uint64_t> evicted_{0};
  mutable std::mutex mu_;
  /// `ring_[(head_ + i) % ring_.size()]` for i in [0, size_) walks oldest
  /// to newest.
  std::vector<T> ring_;
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace ppp::obs

#endif  // PPP_OBS_BOUNDED_RING_H_

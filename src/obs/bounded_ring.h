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

/// Thread-safe bounded ring of records, oldest first: past capacity an
/// append overwrites the oldest record (counted in evicted()). The one
/// record store of the observability layer (QueryLog, PlanAudit,
/// SpanTracer). Appends come from whichever thread finishes a statement or
/// span; snapshots are taken by concurrent introspection scans.
///
/// Slots are allocated as records arrive, up to the capacity, so a large
/// ring that is never written (the span ring while tracing is off) costs
/// no memory. While disabled, Append() is one relaxed atomic load.
template <typename T>
class BoundedRing {
 public:
  explicit BoundedRing(size_t capacity, bool enabled = true)
      : enabled_(enabled), capacity_(std::max<size_t>(capacity, 1)) {}

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Appends one record; no-op while disabled.
  void Append(T record) {
    if (!enabled()) return;
    std::lock_guard<std::mutex> lock(mu_);
    if (ring_.size() < capacity_) {
      ring_.push_back(std::move(record));
    } else {
      // Full: the slot at head_ holds the oldest record; overwrite it and
      // advance the ring.
      ring_[head_] = std::move(record);
      head_ = (head_ + 1) % ring_.size();
      evicted_.fetch_add(1, std::memory_order_relaxed);
    }
    total_.fetch_add(1, std::memory_order_relaxed);
  }

  /// All retained records, oldest first.
  std::vector<T> Snapshot() const { return Tail(SIZE_MAX); }

  /// The most recent `n` records, oldest first.
  std::vector<T> Tail(size_t n) const {
    std::lock_guard<std::mutex> lock(mu_);
    const size_t size = ring_.size();
    const size_t count = std::min(n, size);
    std::vector<T> out;
    out.reserve(count);
    for (size_t i = size - count; i < size; ++i) {
      out.push_back(ring_[(head_ + i) % size]);
    }
    return out;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return ring_.size();
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
    const size_t size = ring_.size();
    const size_t keep = std::min(size, n);
    std::vector<T> fresh;
    fresh.reserve(keep);
    for (size_t i = size - keep; i < size; ++i) {
      fresh.push_back(std::move(ring_[(head_ + i) % size]));
    }
    ring_ = std::move(fresh);
    head_ = 0;
    capacity_ = n;
  }

  size_t capacity() const {
    std::lock_guard<std::mutex> lock(mu_);
    return capacity_;
  }

  /// Drops all retained records (releasing their slots) and zeroes
  /// total/evicted.
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    ring_ = std::vector<T>();
    head_ = 0;
    total_.store(0, std::memory_order_relaxed);
    evicted_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> enabled_;
  std::atomic<uint64_t> total_{0};
  std::atomic<uint64_t> evicted_{0};
  mutable std::mutex mu_;
  size_t capacity_;
  /// `ring_[(head_ + i) % ring_.size()]` for i in [0, ring_.size()) walks
  /// oldest to newest; head_ stays 0 until the ring is full.
  std::vector<T> ring_;
  size_t head_ = 0;
};

}  // namespace ppp::obs

#endif  // PPP_OBS_BOUNDED_RING_H_

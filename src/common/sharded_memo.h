#ifndef PPP_COMMON_SHARDED_MEMO_H_
#define PPP_COMMON_SHARDED_MEMO_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace ppp::common {

/// Thread-safe memo table for the §5.1 predicate/function caches: a
/// hash table keyed on serialized input bindings, split into shards with
/// one mutex each so concurrent probes from the parallel predicate
/// evaluator don't serialize on a single lock.
///
/// Exactness is the design constraint — invocation counts are the paper's
/// measurement currency, so a memoized computation must run **at most once
/// per distinct key** no matter how many workers probe concurrently. A
/// miss installs a *pending* entry before computing; concurrent probes for
/// the same key find the pending entry, count a hit (the serial execution
/// would have hit the completed entry), and wait on the shard's condition
/// variable instead of recomputing. With one worker this degrades to
/// exactly the serial probe/compute/insert sequence.
///
/// Replacement is FIFO per shard (the paper: "function or predicate caches
/// can be limited in size, using any of a variety of replacement
/// schemes"). Bounds come in two flavours that compose:
/// `max_entries` (count) and `max_bytes` (approximate memory — key bytes
/// plus a fixed per-entry overhead). The adaptive self-disable ("planned
/// for Montage but not implemented", §5.1) is detected online: zero hits
/// in the first `probe_window` probes disables the memo and frees its
/// entries. All follow the serial semantics exactly when single-threaded;
/// under concurrency, bounded caches may evict in a run-dependent order
/// (the unbounded default stays exact).
///
/// Shard count: bounds and eviction order are per shard, so a bounded memo
/// reproduces the single-table FIFO order only with one shard. An
/// unbounded memo never evicts, so its shard count cannot change any
/// verdict or count and callers may shard it freely (see
/// exec::ShardedPredicateCache::ShardsFor).
///
/// Probe and hit counts live in the shards, bumped under the lock the
/// probe already holds, so concurrent probers share no counter cache line;
/// probes()/hits() sum over the shards. Only an adaptive memo also keeps
/// the memo-wide atomics its self-disable check reads.
///
/// A probe hashes its key once: the hash picks the shard and is handed to
/// the shard's map through a heterogeneous lookup.
template <typename V>
class ShardedMemo {
 public:
  struct Options {
    /// Total entry bound across all shards; 0 = unbounded.
    size_t max_entries = 0;
    /// Total (approximate) byte bound across all shards; 0 = unbounded.
    /// Each entry is charged its key size plus kEntryOverhead.
    size_t max_bytes = 0;
    size_t shards = 1;
    /// Online self-disable when the first `probe_window` probes all miss.
    bool adaptive = false;
    uint64_t probe_window = 512;
  };

  /// Fixed per-entry charge against max_bytes, approximating the Entry,
  /// the hash-map node, and the eviction-list node.
  static constexpr size_t kEntryOverhead = 64;

  /// Callbacks for the rarer events, fired outside any per-key wait but
  /// possibly under a shard lock; must be cheap and non-blocking (atomic
  /// metric bumps). Hits and misses have none: callers count them from
  /// each probe's Outcome.
  struct Listener {
    std::function<void()> on_eviction;
    std::function<void()> on_disable;
    /// A probe found its shard mutex already held by another worker.
    std::function<void()> on_contention;
  };

  /// What one GetOrCompute did, for callers keeping their own per-use
  /// counts (a shared memo's totals include every other user's probes).
  struct Outcome {
    bool hit = false;
    /// Entries this probe evicted to make room for its own.
    uint64_t evictions = 0;
  };

  explicit ShardedMemo(const Options& options = {}) { Reset(options); }

  ShardedMemo(const ShardedMemo&) = delete;
  ShardedMemo& operator=(const ShardedMemo&) = delete;

  /// Drops all entries and counters and applies new options.
  void Reset(const Options& options) {
    options_ = options;
    if (options_.shards == 0) options_.shards = 1;
    shards_ = std::vector<Shard>(options_.shards);
    shard_max_ =
        options_.max_entries == 0
            ? 0
            : (options_.max_entries + options_.shards - 1) / options_.shards;
    shard_max_bytes_ =
        options_.max_bytes == 0
            ? 0
            : (options_.max_bytes + options_.shards - 1) / options_.shards;
    probes_.store(0, std::memory_order_relaxed);
    hits_.store(0, std::memory_order_relaxed);
    contended_probes_.store(0, std::memory_order_relaxed);
    disabled_.store(false, std::memory_order_relaxed);
  }

  void set_listener(Listener listener) { listener_ = std::move(listener); }

  const Options& options() const { return options_; }

  /// True once the adaptive policy gave up on this memo. The caller is
  /// expected to stop probing and compute directly (the serial code did
  /// exactly that), so `probes()` freezes at the disabling probe.
  bool disabled() const { return disabled_.load(std::memory_order_acquire); }

  /// Returns the memoized value for `key`, running `compute` (any
  /// callable returning V) at most once per distinct key. `compute`
  /// executes without any shard lock held. `outcome`, when non-null,
  /// receives whether this probe hit and how many entries it evicted.
  template <typename Compute>
  V GetOrCompute(std::string_view key, const Compute& compute,
                 Outcome* outcome = nullptr) {
    const uint64_t probe =
        options_.adaptive ? probes_.fetch_add(1, std::memory_order_relaxed) + 1
                          : 0;
    const HashedKey hashed{key, KeyHash{}(key)};
    Shard& shard =
        shards_[shards_.size() == 1 ? 0 : hashed.hash % shards_.size()];
    std::unique_lock<std::mutex> lock = LockShard(&shard);
    ++shard.probes;
    auto it = shard.map.find(hashed);
    if (it != shard.map.end()) {
      ++shard.hits;
      if (options_.adaptive) hits_.fetch_add(1, std::memory_order_relaxed);
      if (outcome != nullptr) outcome->hit = true;
      Entry& entry = *it->second;
      if (entry.ready) return entry.value;
      // Pending entry: another worker is computing this key right now.
      // Waiting (instead of recomputing) is what keeps invocation counts
      // exact under parallelism. Hold the entry itself: it may be evicted
      // or cleared from the map while we wait.
      std::shared_ptr<Entry> pending = it->second;
      shard.cv.wait(lock, [&] { return pending->ready; });
      return pending->value;
    }

    if (options_.adaptive && probe >= options_.probe_window &&
        hits_.load(std::memory_order_relaxed) == 0) {
      // Every binding so far was distinct: memoization cannot pay here.
      // Free the memory (the footnote-4 swap problem) and stop keying.
      // The disable condition depends only on probe/hit counts, so
      // checking before the compute reproduces the serial decision.
      disabled_.store(true, std::memory_order_release);
      if (listener_.on_disable) listener_.on_disable();
      lock.unlock();
      Clear();
      return compute();
    }

    // Evict from the front (FIFO order) until both bounds admit the new
    // entry. The victim may itself be pending; evicting it is safe
    // (waiters and the computing worker hold the entry via shared_ptr)
    // but a concurrent re-probe of that key recomputes —
    // bounded caches trade exactness for memory, exactly like the serial
    // FIFO thrash.
    const size_t new_bytes = key.size() + kEntryOverhead;
    while (!shard.order.empty() &&
           ((shard_max_ > 0 && shard.map.size() >= shard_max_) ||
            (shard_max_bytes_ > 0 &&
             shard.bytes + new_bytes > shard_max_bytes_))) {
      const std::string& victim = shard.order.front();
      shard.bytes -= victim.size() + kEntryOverhead;
      shard.map.erase(victim);
      shard.order.pop_front();
      ++shard.evictions;
      if (outcome != nullptr) ++outcome->evictions;
      if (listener_.on_eviction) listener_.on_eviction();
    }
    auto entry = std::make_shared<Entry>();
    shard.map.emplace(std::string(key), entry);
    shard.order.emplace_back(key);
    shard.bytes += new_bytes;
    lock.unlock();

    V value = compute();

    lock.lock();
    entry->value = std::move(value);
    entry->ready = true;
    shard.cv.notify_all();
    return entry->value;
  }

  /// Drops every entry (waiters on pending entries are unaffected: they
  /// hold the entry itself, and the computing worker still publishes).
  void Clear() {
    for (Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.map.clear();
      shard.order.clear();
      shard.bytes = 0;
    }
  }

  size_t entries() const {
    size_t total = 0;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      total += shard.map.size();
    }
    return total;
  }

  /// Approximate bytes currently charged against max_bytes.
  size_t approx_bytes() const {
    size_t total = 0;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      total += shard.bytes;
    }
    return total;
  }

  uint64_t probes() const { return SumOverShards(&Shard::probes); }
  uint64_t hits() const { return SumOverShards(&Shard::hits); }
  uint64_t evictions() const { return SumOverShards(&Shard::evictions); }
  /// Probes that found their shard mutex already held — the contention
  /// signal the sharding exists to keep near zero.
  uint64_t contended_probes() const {
    return contended_probes_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    V value{};
    bool ready = false;  // Guarded by the owning shard's mutex.
  };

  /// A probe's key with its hash, computed once per probe.
  struct HashedKey {
    std::string_view key;
    size_t hash;
  };

  /// Transparent hash and equality, so a probe finds its key by the hash
  /// it already computed, with no std::string built.
  struct KeyHash {
    using is_transparent = void;
    size_t operator()(std::string_view key) const {
      return std::hash<std::string_view>{}(key);
    }
    size_t operator()(const HashedKey& key) const { return key.hash; }
  };
  struct KeyEq {
    using is_transparent = void;
    bool operator()(std::string_view a, std::string_view b) const {
      return a == b;
    }
    bool operator()(const HashedKey& a, std::string_view b) const {
      return a.key == b;
    }
    bool operator()(std::string_view a, const HashedKey& b) const {
      return a == b.key;
    }
  };

  /// Cache-line aligned so neighbouring shards' mutexes and counters
  /// don't share a line.
  struct alignas(64) Shard {
    mutable std::mutex mu;
    std::condition_variable cv;
    std::unordered_map<std::string, std::shared_ptr<Entry>, KeyHash, KeyEq>
        map;
    /// Eviction queue, front = next victim (insertion order).
    std::list<std::string> order;
    /// Approximate bytes charged for the current entries.
    size_t bytes = 0;
    /// Lifetime counts (survive Clear()), guarded by mu.
    uint64_t probes = 0;
    uint64_t hits = 0;
    uint64_t evictions = 0;
  };

  uint64_t SumOverShards(uint64_t Shard::*field) const {
    uint64_t total = 0;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      total += shard.*field;
    }
    return total;
  }

  std::unique_lock<std::mutex> LockShard(Shard* shard) {
    std::unique_lock<std::mutex> lock(shard->mu, std::try_to_lock);
    if (!lock.owns_lock()) {
      contended_probes_.fetch_add(1, std::memory_order_relaxed);
      if (listener_.on_contention) listener_.on_contention();
      lock.lock();
    }
    return lock;
  }

  Options options_;
  size_t shard_max_ = 0;
  size_t shard_max_bytes_ = 0;
  std::vector<Shard> shards_;
  Listener listener_;
  /// Memo-wide probe/hit counts for the adaptive self-disable only (left
  /// at zero when options_.adaptive is off).
  std::atomic<uint64_t> probes_{0};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> contended_probes_{0};
  std::atomic<bool> disabled_{false};
};

}  // namespace ppp::common

#endif  // PPP_COMMON_SHARDED_MEMO_H_


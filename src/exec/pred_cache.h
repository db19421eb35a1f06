#ifndef PPP_EXEC_PRED_CACHE_H_
#define PPP_EXEC_PRED_CACHE_H_

#include <cstdint>
#include <string>

#include "common/sharded_memo.h"

namespace ppp::exec {

/// The §5.1 predicate cache ("a hash table keyed on the bindings of the
/// input variables"), sharded so the parallel predicate evaluator's
/// concurrent probes don't serialize on one mutex. Wraps
/// common::ShardedMemo<bool> and wires its events into the global metrics
/// registry (exec.predicate_cache.*), keeping hit/miss/eviction counts
/// exact under concurrency.
class ShardedPredicateCache {
 public:
  struct Options {
    /// Total entry bound; 0 = unbounded.
    size_t max_entries = 0;
    /// Total approximate byte bound (key bytes + fixed per-entry overhead);
    /// 0 = unbounded. Evictions under either bound also count into the
    /// exec.pred_cache.evictions metric.
    size_t max_bytes = 0;
    size_t shards = 1;
    /// §5.1 adaptive self-disable: give up after `probe_window` probes with
    /// zero hits.
    bool adaptive = false;
    uint64_t probe_window = 512;
  };

  explicit ShardedPredicateCache(const Options& options);

  using Outcome = common::ShardedMemo<bool>::Outcome;

  /// Shard count for a cache probed by `parallel_workers` threads per
  /// query. An unbounded cache never evicts, so sharding cannot change a
  /// verdict or a count: it always gets kUnboundedShards, which keeps
  /// concurrent sessions probing one engine-wide cache (each running
  /// serially) off a single mutex. A bounded cache evicts per shard, so it
  /// gets 1 shard when serial (the exact single-table FIFO order, and
  /// therefore bit-identical serial behaviour) and several per worker
  /// otherwise.
  static size_t ShardsFor(int parallel_workers, bool bounded);
  static constexpr size_t kUnboundedShards = 16;

  /// Returns the cached verdict for `key`, evaluating `compute` at most
  /// once per distinct key (concurrent probers of an in-flight key wait).
  /// `outcome`, when non-null, receives this probe's hit and evictions.
  template <typename Compute>
  bool GetOrCompute(const std::string& key, const Compute& compute,
                    Outcome* outcome = nullptr) {
    return memo_.GetOrCompute(key, compute, outcome);
  }

  bool disabled() const { return memo_.disabled(); }
  size_t entries() const { return memo_.entries(); }
  size_t approx_bytes() const { return memo_.approx_bytes(); }
  uint64_t probes() const { return memo_.probes(); }
  uint64_t hits() const { return memo_.hits(); }
  uint64_t evictions() const { return memo_.evictions(); }
  uint64_t contended_probes() const { return memo_.contended_probes(); }

 private:
  common::ShardedMemo<bool> memo_;
};

}  // namespace ppp::exec

#endif  // PPP_EXEC_PRED_CACHE_H_

#include "exec/pred_cache.h"

#include <algorithm>

namespace ppp::exec {

namespace {

common::ShardedMemo<bool>::Options MemoOptions(
    const ShardedPredicateCache::Options& options) {
  common::ShardedMemo<bool>::Options memo;
  memo.max_entries = options.max_entries;
  memo.max_bytes = options.max_bytes;
  memo.shards = options.shards;
  memo.adaptive = options.adaptive;
  memo.probe_window = options.probe_window;
  return memo;
}

}  // namespace

ShardedPredicateCache::ShardedPredicateCache(const Options& options)
    : memo_(MemoOptions(options)),
      hits_counter_(obs::MetricsRegistry::Global().GetCounter(
          "exec.predicate_cache.hits")),
      misses_counter_(obs::MetricsRegistry::Global().GetCounter(
          "exec.predicate_cache.misses")) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  common::ShardedMemo<bool>::Listener listener;
  listener.on_eviction = [counter = registry.GetCounter(
                              "exec.predicate_cache.evictions"),
                          bounded = registry.GetCounter(
                              "exec.pred_cache.evictions")] {
    counter->Increment();
    bounded->Increment();
  };
  listener.on_disable = [counter = registry.GetCounter(
                             "exec.predicate_cache.disables")] {
    counter->Increment();
  };
  listener.on_contention = [counter = registry.GetCounter(
                                "exec.predicate_cache.shard_contention")] {
    counter->Increment();
  };
  memo_.set_listener(std::move(listener));
}

size_t ShardedPredicateCache::ShardsFor(int parallel_workers, bool bounded) {
  if (!bounded) return kUnboundedShards;
  if (parallel_workers <= 1) return 1;
  // A few shards per worker keeps the collision probability of concurrent
  // probes low without ballooning per-shard bookkeeping.
  return std::min<size_t>(64, static_cast<size_t>(parallel_workers) * 4);
}

}  // namespace ppp::exec

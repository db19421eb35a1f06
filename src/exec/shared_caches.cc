#include "exec/shared_caches.h"

#include <utility>

namespace ppp::exec {

std::shared_ptr<ShardedPredicateCache> SharedPredicateCacheRegistry::GetOrCreate(
    const std::string& identity,
    const ShardedPredicateCache::Options& options) {
  std::lock_guard<std::mutex> lock(mu_);
  ++acquisitions_;
  auto it = caches_.find(identity);
  if (it != caches_.end()) {
    ++reuses_;
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return it->second.cache;
  }
  while (caches_.size() >= max_caches_) {
    caches_.erase(lru_.back());
    lru_.pop_back();
  }
  auto cache = std::make_shared<ShardedPredicateCache>(options);
  lru_.push_front(identity);
  caches_.emplace(identity, Slot{cache, lru_.begin()});
  return cache;
}

size_t SharedPredicateCacheRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return caches_.size();
}

uint64_t SharedPredicateCacheRegistry::acquisitions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return acquisitions_;
}

uint64_t SharedPredicateCacheRegistry::reuses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reuses_;
}

void SharedPredicateCacheRegistry::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  caches_.clear();
  lru_.clear();
}

std::string BuildSharedCacheKey(
    const std::string& expr_text, const std::string& resolved_tables,
    const ShardedPredicateCache::Options& options) {
  std::string key = expr_text;
  key += '|';
  key += resolved_tables;
  key += "|e=";
  key += std::to_string(options.max_entries);
  key += ",b=";
  key += std::to_string(options.max_bytes);
  key += ",s=";
  key += std::to_string(options.shards);
  key += ",a=";
  key += options.adaptive ? '1' : '0';
  key += ",w=";
  key += std::to_string(options.probe_window);
  return key;
}

}  // namespace ppp::exec

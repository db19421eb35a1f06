#include "serve/plan_cache.h"

#include <cinttypes>

#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/plan_history.h"

namespace ppp::serve {

namespace {

obs::Counter* HitCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("serve.plan_cache.hits");
  return c;
}
obs::Counter* MissCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("serve.plan_cache.misses");
  return c;
}
obs::Counter* InvalidationCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "serve.plan_cache.invalidations");
  return c;
}
obs::Counter* EvictionCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Global().GetCounter("serve.plan_cache.evictions");
  return c;
}
obs::Counter* FamilyHitCounter() {
  static obs::Counter* c = obs::MetricsRegistry::Global().GetCounter(
      "serve.plan_cache.family_hits");
  return c;
}

size_t CountNodes(const plan::PlanNode& node) {
  size_t n = 1;
  for (const auto& child : node.children) n += CountNodes(*child);
  return n;
}

}  // namespace

PlanCache::PlanCache(const Options& options) : options_(options) {
  if (options_.max_entries == 0) options_.max_entries = 1;
}

std::shared_ptr<const CachedPlan> PlanCache::Probe(
    const PlanCacheKey& key, const catalog::Catalog& catalog) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = slots_.find(key);
  if (it == slots_.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    MissCounter()->Increment();
    return nullptr;
  }

  // Validate against live state. The epochs are read without the cache
  // lock ordering mattering: a concurrent ANALYZE either bumped the epoch
  // (we miss, correct) or its listener already erased the entry.
  CachedPlan& cached = it->second.plan;
  bool valid = true;
  for (size_t i = 0; i < cached.bindings.size() && valid; ++i) {
    auto table = catalog.GetTable(cached.bindings[i].second);
    valid = table.ok() && (*table)->stats_epoch() == cached.stats_epochs[i];
  }
  if (valid && obs::PlanHistory::Global().enabled() &&
      obs::PlanHistory::Global().Regressed(cached.text_hash,
                                           cached.plan_fingerprint)) {
    valid = false;
  }
  if (!valid) {
    EraseLocked(it);
    invalidations_.fetch_add(1, std::memory_order_relaxed);
    InvalidationCounter()->Increment();
    misses_.fetch_add(1, std::memory_order_relaxed);
    MissCounter()->Increment();
    return nullptr;
  }

  cached.hits += 1;
  if (key.family) {
    family_hit_counts_[cached.family_hash] += 1;
    family_hits_total_.fetch_add(1, std::memory_order_relaxed);
    FamilyHitCounter()->Increment();
  }
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  hits_.fetch_add(1, std::memory_order_relaxed);
  HitCounter()->Increment();
  return std::make_shared<CachedPlan>(cached);
}

void PlanCache::Insert(const PlanCacheKey& key, CachedPlan plan) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = slots_.find(key);
  if (it != slots_.end()) EraseLocked(it);
  plan.approx_bytes = ApproxPlanBytes(*plan.plan, plan.bindings);
  bytes_ += plan.approx_bytes;
  lru_.push_front(key);
  slots_.emplace(key, Slot{std::move(plan), lru_.begin()});
  EvictPastBoundsLocked();
}

void PlanCache::InvalidateTable(const std::string& table_name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = slots_.begin(); it != slots_.end();) {
    bool binds = false;
    for (const auto& [alias, table] : it->second.plan.bindings) {
      if (table == table_name) {
        binds = true;
        break;
      }
    }
    if (binds) {
      auto victim = it++;
      EraseLocked(victim);
      invalidations_.fetch_add(1, std::memory_order_relaxed);
      InvalidationCounter()->Increment();
    } else {
      ++it;
    }
  }
}

void PlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  slots_.clear();
  lru_.clear();
  family_hit_counts_.clear();
  bytes_ = 0;
}

size_t PlanCache::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slots_.size();
}

size_t PlanCache::approx_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

std::vector<PlanCacheEntryView> PlanCache::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<PlanCacheEntryView> out;
  out.reserve(slots_.size());
  // LRU order, hottest first, so the system table reads as a ranking.
  for (const PlanCacheKey& key : lru_) {
    const auto it = slots_.find(key);
    if (it == slots_.end()) continue;
    const CachedPlan& p = it->second.plan;
    PlanCacheEntryView view;
    view.text_hash = p.text_hash;
    view.family_hash = p.family_hash;
    view.params_hash = key.params_hash;
    view.is_family = key.family;
    if (const auto fh = family_hit_counts_.find(p.family_hash);
        fh != family_hit_counts_.end()) {
      view.family_hits = fh->second;
    }
    view.plan_fingerprint = p.plan_fingerprint;
    view.algorithm = p.algorithm;
    for (const auto& [alias, table] : p.bindings) {
      if (!view.tables.empty()) view.tables += ',';
      view.tables += table;
    }
    view.hits = p.hits;
    view.est_cost = p.est_cost;
    view.optimize_seconds = p.optimize_seconds;
    view.approx_bytes = p.approx_bytes;
    out.push_back(std::move(view));
  }
  return out;
}

void PlanCache::EraseLocked(
    std::unordered_map<PlanCacheKey, Slot, KeyHash>::iterator it) {
  bytes_ -= it->second.plan.approx_bytes;
  lru_.erase(it->second.lru_pos);
  slots_.erase(it);
}

void PlanCache::EvictPastBoundsLocked() {
  while (slots_.size() > 1 &&
         (slots_.size() > options_.max_entries ||
          (options_.max_bytes > 0 && bytes_ > options_.max_bytes))) {
    auto it = slots_.find(lru_.back());
    if (it == slots_.end()) {
      lru_.pop_back();
      continue;
    }
    EraseLocked(it);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    EvictionCounter()->Increment();
  }
}

uint64_t PlacementParamsHash(const cost::CostParams& p,
                             const std::string& algorithm) {
  // %.17g round-trips doubles exactly, so distinct knob values never
  // collide by formatting.
  const std::string text = common::StringPrintf(
      "%s|%.17g|%.17g|%.17g|%.17g|%.17g|%d|%d|%d|%d|%d|%d|%d",
      algorithm.c_str(), p.seq_page_io, p.rand_page_io, p.index_probe_ios,
      p.buffer_pages, p.sort_fanout, p.per_input_selectivity ? 1 : 0,
      p.predicate_caching ? 1 : 0, p.parallel_workers,
      p.current_cardinality_estimate ? 1 : 0, p.use_feedback ? 1 : 0,
      p.use_collected_stats ? 1 : 0, p.predicate_transfer ? 1 : 0);
  return common::Fnv1aHash(text);
}

size_t ApproxPlanBytes(
    const plan::PlanNode& plan,
    const std::vector<std::pair<std::string, std::string>>& bindings) {
  // Entries are dominated by the plan tree; charge a flat estimate per
  // node (expression + strings + annotations) plus the binding strings and
  // fixed slot overhead. Deliberately coarse, like the predicate cache's
  // key-bytes accounting — the bound exists to cap growth, not to meter
  // allocations.
  constexpr size_t kPerNode = 512;
  constexpr size_t kSlotOverhead = 256;
  size_t bytes = kSlotOverhead + CountNodes(plan) * kPerNode;
  for (const auto& [alias, table] : bindings) {
    bytes += alias.size() + table.size() + 2 * sizeof(void*);
  }
  return bytes;
}

}  // namespace ppp::serve

#ifndef PPP_SERVE_PLAN_CACHE_H_
#define PPP_SERVE_PLAN_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "cost/cost_params.h"
#include "obs/stats_tier.h"
#include "plan/plan_node.h"

namespace ppp::serve {

/// Identity of one plan-cache slot. Three coordinates, per the tentpole:
/// the normalized query text (constants included — a plan embeds its
/// literals), the statistics snapshots the optimizer planned against, and
/// the placement-relevant knobs (CostParams + algorithm). Any coordinate
/// moving is a miss, never a stale plan.
struct PlanCacheKey {
  uint64_t text_hash = 0;
  /// Hash over every placement-relevant CostParams field + algorithm name.
  uint64_t params_hash = 0;
  /// Family (generic-plan) entries are keyed on family_hash-as-text_hash
  /// with this flag set, so a family entry for `u10 < $1` can never
  /// collide with an exact entry whose literal text happens to hash alike.
  bool family = false;

  bool operator==(const PlanCacheKey& other) const {
    return text_hash == other.text_hash &&
           params_hash == other.params_hash && family == other.family;
  }
};

/// One cached optimization: the immutable plan plus everything a session
/// needs to execute it without re-parsing (alias bindings) and everything
/// the cache needs to re-validate it on probe (per-table stats epochs,
/// history identity).
struct CachedPlan {
  std::shared_ptr<const plan::PlanNode> plan;
  /// (alias, table name) in spec order: sessions rebuild ExecContext
  /// bindings from this on a hit, skipping parse/bind entirely.
  std::vector<std::pair<std::string, std::string>> bindings;
  /// stats_epoch() of each bound table at optimize time, same order as
  /// `bindings`. Probe re-reads the live epochs; any drift is a miss.
  std::vector<uint64_t> stats_epochs;
  uint64_t text_hash = 0;
  uint64_t family_hash = 0;   ///< Literal-sloted family (observability).
  uint64_t plan_fingerprint = 0;
  /// exec::WeakestStatsTier(*plan), computed once when the plan is made.
  obs::StatsTier stats_tier = obs::StatsTier::kDeclared;
  std::string algorithm;
  double est_cost = 0.0;
  double optimize_seconds = 0.0;  ///< What the miss paid (the hit saves it).
  uint64_t hits = 0;
  size_t approx_bytes = 0;
  /// Generic (family-keyed) entries only: how many parameter slots the
  /// plan's expressions carry — CloneWithParams validates against it.
  size_t num_params = 0;
};

/// Snapshot row of one entry (the ppp_plan_cache system table).
struct PlanCacheEntryView {
  uint64_t text_hash = 0;
  uint64_t family_hash = 0;
  uint64_t params_hash = 0;
  uint64_t plan_fingerprint = 0;
  std::string algorithm;
  std::string tables;  ///< Comma-joined bound table names.
  uint64_t hits = 0;
  double est_cost = 0.0;
  double optimize_seconds = 0.0;
  size_t approx_bytes = 0;
  bool is_family = false;       ///< Generic (parameterized) entry?
  uint64_t family_hits = 0;     ///< Generic-plan hits for this family.
};

/// The serving layer's normalized-query plan cache. Probe is O(1) in the
/// number of entries: one hash lookup, then validation against the live
/// stats epochs of the entry's own tables and the plan-history regression
/// verdict for its fingerprint. Invalidation is deliberately three-way:
///
///  * ANALYZE (or a declared-stats override) bumps a table's stats epoch;
///    the catalog listener calls InvalidateTable and probe-time epoch
///    checks catch any entry the listener raced with.
///  * PlanHistory flags the entry's (text_hash, fingerprint) regressed;
///    the next probe drops the entry so the optimizer can re-plan.
///  * Capacity: byte-bounded LRU like the predicate cache (entry bytes =
///    key + bindings + an estimate of the plan tree).
///
/// Thread-safe under one mutex; all operations are O(1)-ish except
/// InvalidateTable, which scans entries (the cache is small and ANALYZE is
/// rare). Counters surface as serve.plan_cache.{hits,misses,invalidations,
/// evictions} in the global metrics registry.
class PlanCache {
 public:
  static constexpr size_t kDefaultMaxBytes = 8u << 20;
  static constexpr size_t kDefaultMaxEntries = 512;

  struct Options {
    size_t max_bytes = kDefaultMaxBytes;
    size_t max_entries = kDefaultMaxEntries;
  };

  PlanCache() : PlanCache(Options()) {}
  explicit PlanCache(const Options& options);

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// Returns the cached plan for `key` when present AND still valid:
  /// every bound table's live stats epoch matches the entry's, and the
  /// plan history holds no regression verdict against it. An invalid entry
  /// is dropped (counted as an invalidation) and nullptr returned. The
  /// returned shared_ptr keeps the plan alive even if the entry is evicted
  /// mid-execution.
  std::shared_ptr<const CachedPlan> Probe(const PlanCacheKey& key,
                                          const catalog::Catalog& catalog);

  /// Inserts (or replaces) the entry for `key`, evicting LRU entries past
  /// the byte/entry bounds.
  void Insert(const PlanCacheKey& key, CachedPlan plan);

  /// Drops every entry that binds `table_name` (the ANALYZE hook).
  void InvalidateTable(const std::string& table_name);

  /// Drops everything.
  void Clear();

  size_t entries() const;
  size_t approx_bytes() const;
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  uint64_t invalidations() const {
    return invalidations_.load(std::memory_order_relaxed);
  }
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  uint64_t family_hits() const {
    return family_hits_total_.load(std::memory_order_relaxed);
  }

  std::vector<PlanCacheEntryView> Snapshot() const;

 private:
  struct KeyHash {
    size_t operator()(const PlanCacheKey& key) const {
      // text_hash is already FNV-mixed; fold params in with the golden
      // ratio so equal text under different knobs spreads.
      return static_cast<size_t>(key.text_hash ^
                                 (key.params_hash * 0x9e3779b97f4a7c15ull) ^
                                 (key.family ? 0x5851f42d4c957f2dull : 0));
    }
  };
  struct Slot {
    CachedPlan plan;
    std::list<PlanCacheKey>::iterator lru_pos;
  };

  void EraseLocked(
      std::unordered_map<PlanCacheKey, Slot, KeyHash>::iterator it);
  void EvictPastBoundsLocked();

  Options options_;
  mutable std::mutex mu_;
  std::unordered_map<PlanCacheKey, Slot, KeyHash> slots_;
  std::list<PlanCacheKey> lru_;  ///< Front = most recently used.
  size_t bytes_ = 0;
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> invalidations_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> family_hits_total_{0};
  /// Per-family generic-plan hit counts. Survives entry eviction so the
  /// ppp_plan_cache family_hits column reflects lifetime reuse.
  std::unordered_map<uint64_t, uint64_t> family_hit_counts_;
};

/// Hash over every CostParams field plus the algorithm name: two sessions
/// with different knobs never share a slot. CostParams also holds the knobs
/// the executor shares with the model, so a cached plan always runs under
/// the knobs it was optimized for.
uint64_t PlacementParamsHash(const cost::CostParams& params,
                             const std::string& algorithm);

/// Rough byte footprint of a cached plan entry (keys + bindings + a
/// per-plan-node constant), the currency of the cache's byte bound.
size_t ApproxPlanBytes(const plan::PlanNode& plan,
                       const std::vector<std::pair<std::string, std::string>>&
                           bindings);

}  // namespace ppp::serve

#endif  // PPP_SERVE_PLAN_CACHE_H_

#ifndef PPP_CATALOG_SYSTEM_TABLES_H_
#define PPP_CATALOG_SYSTEM_TABLES_H_

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

namespace ppp::catalog {

class Catalog;

/// Registers the built-in introspection tables on `catalog` (called by the
/// Catalog constructor):
///
///   ppp_query_log      one row per executed query (obs::QueryLog ring)
///   ppp_metrics        the registry's counters/gauges/histograms, flat
///   ppp_spans          the span tracer's buffer (trace↔log via query_id)
///   ppp_table_stats    per-column TableStatistics of analyzed base tables
///   ppp_operator_audit per-operator est-vs-actual records (obs::PlanAudit)
///   ppp_plan_history   per (text_hash, fingerprint) execution aggregates
///                      with plan-change/regression flags (obs::PlanHistory)
///
/// All six are read-only virtual tables: rows are materialized from live
/// engine state at scan open, so a query sees one consistent snapshot.
/// ppp_table_stats is the only one needing the catalog itself; it holds a
/// back-pointer, which is safe because the catalog owns the table.
void RegisterBuiltinSystemTables(Catalog* catalog);

/// Who serves the rows of the system tables a component registers on a
/// catalog after construction (the serving layer's ppp_plan_cache and
/// ppp_sessions, the network server's ppp_connections). Their providers
/// capture only the catalog pointer and look the owner up per scan. Every
/// live owner over a catalog stays registered: a scan serves the newest
/// one, and when it goes away the tables fall back to the one before it,
/// so a short-lived second owner never blanks a long-lived first one.
/// Thread-safe.
template <typename Owner>
class SystemTableOwners {
 public:
  void Add(const Catalog* catalog, const std::shared_ptr<Owner>& owner) {
    std::lock_guard<std::mutex> lock(mu_);
    owners_[catalog].push_back(owner);
  }

  /// Drops `owner` (and any expired owners) from `catalog`'s list.
  void Remove(const Catalog* catalog, const Owner* owner) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = owners_.find(catalog);
    if (it == owners_.end()) return;
    std::vector<std::weak_ptr<Owner>>& list = it->second;
    list.erase(std::remove_if(list.begin(), list.end(),
                              [owner](const std::weak_ptr<Owner>& weak) {
                                const std::shared_ptr<Owner> live =
                                    weak.lock();
                                return live == nullptr || live.get() == owner;
                              }),
               list.end());
    if (list.empty()) owners_.erase(it);
  }

  /// The newest live owner over `catalog`, or null.
  std::shared_ptr<Owner> Find(const Catalog* catalog) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = owners_.find(catalog);
    if (it == owners_.end()) return nullptr;
    for (auto weak = it->second.rbegin(); weak != it->second.rend(); ++weak) {
      if (std::shared_ptr<Owner> live = weak->lock()) return live;
    }
    return nullptr;
  }

 private:
  mutable std::mutex mu_;
  std::map<const Catalog*, std::vector<std::weak_ptr<Owner>>> owners_;
};

}  // namespace ppp::catalog

#endif  // PPP_CATALOG_SYSTEM_TABLES_H_

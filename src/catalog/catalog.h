#ifndef PPP_CATALOG_CATALOG_H_
#define PPP_CATALOG_CATALOG_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/function_registry.h"
#include "catalog/table.h"
#include "common/status.h"
#include "storage/buffer_pool.h"

namespace ppp::catalog {

/// The system catalog: tables (with their storage) and user-defined
/// functions. One Catalog per Database instance; all storage goes through
/// the single BufferPool passed at construction so every experiment's I/O
/// is centrally counted.
///
/// Thread safety: the table maps are guarded by an internal mutex so
/// concurrent sessions can resolve tables while another session creates
/// one. Table* pointers stay valid for the catalog's lifetime (tables are
/// never dropped); Table itself guards its mutable statistics.
class Catalog {
 public:
  /// Called (with the table name) after a table's statistics epoch bumps —
  /// i.e. after ANALYZE swaps its snapshot or declared stats are
  /// overridden. Invoked outside all catalog locks.
  using StatsListener = std::function<void(const std::string&)>;
  /// Reserved name prefix of the built-in system tables; CreateTable
  /// rejects it so user tables can never shadow introspection.
  static constexpr const char* kSystemPrefix = "ppp_";

  /// Construction registers the built-in system tables (ppp_query_log,
  /// ppp_metrics, ppp_spans, ppp_table_stats, ppp_operator_audit,
  /// ppp_plan_history), so
  /// every Database is introspectable from its first query.
  explicit Catalog(storage::BufferPool* pool);

  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  /// Creates an empty table; AlreadyExists if the name is taken,
  /// InvalidArgument for the reserved ppp_ prefix.
  common::Result<Table*> CreateTable(const std::string& name,
                                     std::vector<ColumnDef> columns);

  /// Resolves base tables and system tables alike.
  common::Result<Table*> GetTable(const std::string& name) const;

  /// Base-table names only, sorted. System tables are deliberately
  /// excluded: ANALYZE-all, schema dumps, and equivalence harnesses
  /// iterate this and must not see virtual state.
  std::vector<std::string> TableNames() const;

  /// The registered system tables, sorted.
  std::vector<std::string> SystemTableNames() const;

  /// Registers a system table (name must carry kSystemPrefix and the
  /// Table must be in system mode). The built-ins go through this from
  /// the constructor; tests can add their own.
  common::Result<Table*> RegisterSystemTable(std::unique_ptr<Table> table);

  /// Subscribes to stats changes on every table (current and future);
  /// returns an id for RemoveStatsListener. Plan caches hang their
  /// invalidation off this.
  uint64_t AddStatsListener(StatsListener listener);
  void RemoveStatsListener(uint64_t id);

  FunctionRegistry& functions() { return functions_; }
  const FunctionRegistry& functions() const { return functions_; }

 private:
  /// Wires the per-table stats-changed callback to NotifyStatsChanged.
  void HookTable(Table* table);
  void NotifyStatsChanged(const std::string& table_name) const;

  storage::BufferPool* pool_;
  /// Guards tables_ / system_tables_.
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::unique_ptr<Table>> tables_;
  std::unordered_map<std::string, std::unique_ptr<Table>> system_tables_;
  FunctionRegistry functions_;
  mutable std::mutex listeners_mu_;
  uint64_t next_listener_id_ = 1;
  std::unordered_map<uint64_t, StatsListener> listeners_;
};

}  // namespace ppp::catalog

#endif  // PPP_CATALOG_CATALOG_H_

#include "catalog/table.h"

#include <algorithm>

#include "common/logging.h"
#include "stats/value_runs.h"
#include "storage/page.h"

namespace ppp::catalog {

Table::Table(std::string name, std::vector<ColumnDef> columns,
             storage::BufferPool* pool)
    : name_(std::move(name)),
      columns_(std::move(columns)),
      pool_(pool),
      heap_(pool),
      stats_(columns_.size()) {}

Table::Table(std::string name, std::vector<ColumnDef> columns,
             SystemRowProvider provider,
             std::function<int64_t()> row_count_hint)
    : name_(std::move(name)),
      columns_(std::move(columns)),
      pool_(nullptr),
      heap_(nullptr),  // Never touched: system tables have no storage.
      stats_(columns_.size()),
      provider_(std::move(provider)),
      row_count_hint_(std::move(row_count_hint)) {}

common::Result<std::vector<types::Tuple>> Table::MaterializeSystemRows()
    const {
  if (provider_ == nullptr) {
    return common::Status::InvalidArgument(
        "table " + name_ + " is a base table, not a system table");
  }
  PPP_ASSIGN_OR_RETURN(std::vector<types::Tuple> rows, provider_());
  for (const types::Tuple& row : rows) {
    if (row.NumValues() != columns_.size()) {
      return common::Status::Internal(
          "system table " + name_ + " provider produced arity " +
          std::to_string(row.NumValues()) + ", schema has " +
          std::to_string(columns_.size()));
    }
  }
  return rows;
}

int64_t Table::NumTuples() const {
  if (provider_ != nullptr) {
    return row_count_hint_ != nullptr ? row_count_hint_() : 0;
  }
  return static_cast<int64_t>(heap_.NumRecords());
}

int64_t Table::NumPages() const {
  if (provider_ != nullptr) {
    // No pages exist; synthesize a footprint from the row-count hint so
    // scan costing stays proportional to volume. ~8 bytes per numeric
    // column, ~24 per string is close enough for placement decisions.
    size_t width = 0;
    for (const ColumnDef& col : columns_) {
      width += col.type == types::TypeId::kString ? 24 : 8;
    }
    const int64_t bytes = NumTuples() * static_cast<int64_t>(width);
    return std::max<int64_t>(
        1, (bytes + static_cast<int64_t>(storage::kPageSize) - 1) /
               static_cast<int64_t>(storage::kPageSize));
  }
  return static_cast<int64_t>(heap_.NumPages());
}

std::optional<size_t> Table::FindColumn(const std::string& column) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == column) return i;
  }
  return std::nullopt;
}

common::Status Table::Insert(const types::Tuple& tuple) {
  if (is_system()) {
    return common::Status::InvalidArgument("system table " + name_ +
                                           " is read-only");
  }
  if (tuple.NumValues() != columns_.size()) {
    return common::Status::InvalidArgument(
        "tuple arity " + std::to_string(tuple.NumValues()) +
        " does not match table " + name_ + " arity " +
        std::to_string(columns_.size()));
  }
  PPP_ASSIGN_OR_RETURN(storage::RecordId rid, heap_.Insert(tuple.Serialize()));
  for (auto& [col_index, index] : indexes_) {
    const types::Value& v = tuple.Get(col_index);
    if (v.is_null()) continue;
    index->Insert(v.AsInt64(), rid);
  }
  return common::Status::OK();
}

common::Result<types::Tuple> Table::Read(storage::RecordId rid) const {
  PPP_ASSIGN_OR_RETURN(std::string bytes, heap_.Read(rid));
  return types::Tuple::Deserialize(bytes);
}

common::Status Table::CreateIndex(const std::string& column) {
  if (is_system()) {
    return common::Status::InvalidArgument(
        "cannot index system table " + name_ +
        ": rows are materialized per scan");
  }
  const std::optional<size_t> col = FindColumn(column);
  if (!col.has_value()) {
    return common::Status::NotFound("no column " + column + " in table " +
                                    name_);
  }
  if (columns_[*col].type != types::TypeId::kInt64) {
    return common::Status::InvalidArgument(
        "indexes are supported on INT64 columns only; " + name_ + "." +
        column + " is " + types::TypeIdName(columns_[*col].type));
  }
  if (indexes_.count(*col) > 0) {
    return common::Status::AlreadyExists("index on " + name_ + "." + column +
                                         " already exists");
  }
  auto index = std::make_unique<storage::BTree>(pool_);
  // Next, not NextView: the B-tree inserts below fetch pages between
  // records, and a pin held across them would change what the pool evicts.
  storage::HeapFile::Iterator it = heap_.Scan();
  storage::RecordId rid;
  std::string bytes;
  while (it.Next(&rid, &bytes)) {
    PPP_ASSIGN_OR_RETURN(types::Tuple tuple, types::Tuple::Deserialize(bytes));
    const types::Value& v = tuple.Get(*col);
    if (v.is_null()) continue;
    index->Insert(v.AsInt64(), rid);
  }
  indexes_[*col] = std::move(index);
  return common::Status::OK();
}

const storage::BTree* Table::GetIndex(const std::string& column) const {
  const std::optional<size_t> col = FindColumn(column);
  if (!col.has_value()) return nullptr;
  auto it = indexes_.find(*col);
  return it == indexes_.end() ? nullptr : it->second.get();
}

common::Status Table::Analyze() {
  if (is_system()) {
    // System-table contents churn with every query, so collected stats
    // would be stale by the time they were used: their provenance is
    // pinned to the declared tier.
    return common::Status::InvalidArgument(
        "cannot ANALYZE system table " + name_ +
        ": statistics are pinned to the declared tier");
  }
  std::vector<std::vector<types::Value>> values(columns_.size());
  for (std::vector<types::Value>& column : values) {
    column.reserve(static_cast<size_t>(NumTuples()));
  }
  std::vector<ColumnStats> stats(columns_.size());
  std::vector<bool> bounded(columns_.size(), false);

  storage::HeapFile::Iterator it = heap_.Scan();
  storage::RecordId rid;
  std::string_view bytes;
  while (it.NextView(&rid, &bytes)) {
    PPP_ASSIGN_OR_RETURN(types::Tuple tuple, types::Tuple::Deserialize(bytes));
    for (size_t i = 0; i < columns_.size(); ++i) {
      const types::Value& v = tuple.Get(i);
      if (v.is_null()) continue;
      values[i].push_back(v);
      if (v.type() == types::TypeId::kInt64) {
        const int64_t x = v.AsInt64();
        if (!bounded[i] || x < stats[i].min_value) stats[i].min_value = x;
        if (!bounded[i] || x > stats[i].max_value) stats[i].max_value = x;
        bounded[i] = true;
      }
    }
  }
  for (size_t i = 0; i < columns_.size(); ++i) {
    stats[i].num_distinct =
        static_cast<int64_t>(stats::SortedRuns(std::move(values[i])).size());
  }
  stats_ = std::move(stats);
  BumpStatsEpoch();
  return common::Status::OK();
}

const ColumnStats& Table::GetColumnStats(const std::string& column) const {
  static const ColumnStats kEmpty;
  const std::optional<size_t> col = FindColumn(column);
  if (!col.has_value()) return kEmpty;
  return stats_[*col];
}

common::Status Table::SetDeclaredStats(const std::string& column,
                                       const ColumnStats& stats) {
  const std::optional<size_t> col = FindColumn(column);
  if (!col.has_value()) {
    return common::Status::NotFound("no column " + column + " in table " +
                                    name_);
  }
  stats_[*col] = stats;
  BumpStatsEpoch();
  return common::Status::OK();
}

int64_t Table::EffectiveDistinct(const std::string& column,
                                 bool use_collected) const {
  if (use_collected) {
    const std::shared_ptr<const stats::TableStatistics> collected =
        collected_stats();
    if (collected != nullptr) {
      const stats::ColumnDistribution* d = collected->Find(column);
      if (d != nullptr && d->ndv > 0.0) {
        return static_cast<int64_t>(d->ndv + 0.5);
      }
    }
  }
  return GetColumnStats(column).num_distinct;
}

types::RowSchema Table::RowSchemaForAlias(const std::string& alias) const {
  std::vector<types::ColumnInfo> cols;
  cols.reserve(columns_.size());
  for (const ColumnDef& col : columns_) {
    cols.push_back({alias, col.name, col.type});
  }
  return types::RowSchema(std::move(cols));
}

}  // namespace ppp::catalog

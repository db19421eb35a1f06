#include "exec/scan_ops.h"

#include <algorithm>
#include <optional>

#include "common/string_util.h"
#include "obs/span.h"

namespace ppp::exec {

template <typename HashFn>
bool TransferProbe::ProbeRow(const HashFn& hash) const {
  for (const Slot& slot : slots_) {
    const BloomFilter* filter = slot.transfer->ActiveFilter();
    if (filter == nullptr) continue;
    const bool pass = filter->MightContainHash(hash(slot.key_index));
    slot.transfer->RecordProbes(1, pass ? 1 : 0);
    if (!pass) return false;
  }
  return true;
}

std::optional<obs::Span> TransferProbe::ProbeSpan(size_t rows) const {
  std::optional<obs::Span> span;
  if (rows == 0 || !obs::SpanTracer::Global().enabled()) return span;
  std::string sites;
  for (const Slot& slot : slots_) {
    if (slot.transfer->ActiveFilter() == nullptr) continue;
    if (!sites.empty()) sites += "; ";
    sites += slot.transfer->Site();
  }
  if (sites.empty()) return span;
  span.emplace("exec", "bloom.probe");
  span->AddArg("site", sites);
  span->AddArg("probed", std::to_string(rows));
  return span;
}

void TransferProbe::FilterBatch(TupleBatch* batch) const {
  std::optional<obs::Span> span = ProbeSpan(batch->size());
  std::vector<types::Tuple>& rows = batch->tuples;
  size_t out = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    const types::Tuple& row = rows[i];
    if (!ProbeRow([&row](size_t key) {
          return static_cast<uint64_t>(row.Get(key).Hash());
        })) {
      continue;
    }
    // Never self-move: that would empty a row kept in place.
    if (out != i) rows[out] = std::move(rows[i]);
    ++out;
  }
  rows.resize(out);
  if (span.has_value()) span->AddArg("passed", std::to_string(out));
}

void TransferProbe::FilterColumns(types::ColumnBatch* batch) const {
  std::vector<uint32_t>& sel = *batch->mutable_selection();
  std::optional<obs::Span> span = ProbeSpan(sel.size());
  size_t out = 0;
  for (const uint32_t row : sel) {
    if (ProbeRow([batch, row](size_t key) {
          return batch->HashCell(key, row);
        })) {
      sel[out++] = row;
    }
  }
  sel.resize(out);
  if (span.has_value()) span->AddArg("passed", std::to_string(out));
}

void TransferProbe::FoldStats(OperatorStats* stats) const {
  if (slots_.empty()) return;
  stats->has_transfer = true;
  stats->transfer_probed = 0;
  stats->transfer_passed = 0;
  stats->transfer_killed = false;
  stats->transfer_fpr = -1.0;
  for (const Slot& slot : slots_) {
    stats->transfer_probed += slot.transfer->probed();
    stats->transfer_passed += slot.transfer->passed();
    stats->transfer_killed = stats->transfer_killed || slot.transfer->killed();
    const double fpr = slot.transfer->MeasuredFpr();
    if (fpr >= 0.0) {
      stats->transfer_fpr = std::max(stats->transfer_fpr, fpr);
    }
  }
}

SeqScanOp::SeqScanOp(const catalog::Table* table, const std::string& alias)
    : table_(table), alias_(alias), it_(table->heap().Scan()) {
  schema_ = table->RowSchemaForAlias(alias);
}

common::Status SeqScanOp::OpenImpl() {
  it_ = table_->heap().Scan();
  return common::Status::OK();
}

common::Status SeqScanOp::NextBatchImpl(size_t max_rows, TupleBatch* batch,
                                        bool* eof) {
  *eof = false;
  storage::RecordId rid;
  std::string_view bytes;
  while (batch->size() < max_rows) {
    if (!it_.NextView(&rid, &bytes)) {
      *eof = true;
      break;
    }
    PPP_ASSIGN_OR_RETURN(types::Tuple tuple,
                         types::Tuple::Deserialize(bytes));
    batch->tuples.push_back(std::move(tuple));
  }
  // One pin per page per call: nothing else fetches inside this loop, but
  // the consumer may fetch other pages before the next call (a nested-loop
  // join rescanning its inner), and a pin held across that would change
  // what the pool evicts.
  it_.Unpin();
  if (!transfers_.empty()) transfers_.FilterBatch(batch);
  return common::Status::OK();
}

common::Status SeqScanOp::NextColumnBatchImpl(size_t max_rows,
                                              types::ColumnBatch* batch,
                                              bool* eof) {
  batch->Reset(schema_);
  *eof = false;
  storage::RecordId rid;
  std::string_view bytes;
  while (batch->num_rows() < max_rows) {
    if (!it_.NextView(&rid, &bytes)) {
      *eof = true;
      break;
    }
    PPP_RETURN_IF_ERROR(batch->AppendSerialized(bytes));
  }
  // Unpinned per call, as in NextBatchImpl: a consumer that fetches pages
  // between calls (a correlated subquery in a filter above, a nested-loop
  // inner) must see the same pool either way.
  it_.Unpin();
  if (!transfers_.empty()) transfers_.FilterColumns(batch);
  return common::Status::OK();
}

std::string SeqScanOp::Describe() const {
  std::string out = "SeqScan(" + table_->name();
  if (alias_ != table_->name()) out += " AS " + alias_;
  return out + ")";
}

IndexScanOp::IndexScanOp(const catalog::Table* table,
                         const std::string& alias, std::string column,
                         int64_t key)
    : IndexScanOp(table, alias, std::move(column), key, key) {}

IndexScanOp::IndexScanOp(const catalog::Table* table,
                         const std::string& alias, std::string column,
                         int64_t lo, int64_t hi)
    : table_(table), alias_(alias), column_(std::move(column)), lo_(lo),
      hi_(hi) {
  schema_ = table->RowSchemaForAlias(alias);
}

common::Status IndexScanOp::OpenImpl() {
  const storage::BTree* index = table_->GetIndex(column_);
  if (index == nullptr) {
    return common::Status::NotFound("no index on " + table_->name() + "." +
                                    column_);
  }
  rids_ = index->LookupRange(lo_, hi_);
  pos_ = 0;
  return common::Status::OK();
}

common::Status IndexScanOp::NextBatchImpl(size_t max_rows,
                                          TupleBatch* batch, bool* eof) {
  *eof = false;
  while (batch->size() < max_rows) {
    if (pos_ >= rids_.size()) {
      *eof = true;
      break;
    }
    PPP_ASSIGN_OR_RETURN(types::Tuple tuple, table_->Read(rids_[pos_]));
    ++pos_;
    batch->tuples.push_back(std::move(tuple));
  }
  if (!transfers_.empty()) transfers_.FilterBatch(batch);
  return common::Status::OK();
}

common::Status IndexScanOp::NextColumnBatchImpl(size_t max_rows,
                                                types::ColumnBatch* batch,
                                                bool* eof) {
  batch->Reset(schema_);
  *eof = false;
  while (batch->num_rows() < max_rows) {
    if (pos_ >= rids_.size()) {
      *eof = true;
      break;
    }
    PPP_ASSIGN_OR_RETURN(const types::Tuple tuple, table_->Read(rids_[pos_]));
    ++pos_;
    batch->AppendTuple(tuple);
  }
  if (!transfers_.empty()) transfers_.FilterColumns(batch);
  return common::Status::OK();
}

std::string IndexScanOp::Describe() const {
  if (lo_ == hi_) {
    return common::StringPrintf("IndexScan(%s.%s = %lld)",
                                table_->name().c_str(), column_.c_str(),
                                static_cast<long long>(lo_));
  }
  return common::StringPrintf("IndexScan(%lld <= %s.%s <= %lld)",
                              static_cast<long long>(lo_),
                              table_->name().c_str(), column_.c_str(),
                              static_cast<long long>(hi_));
}

}  // namespace ppp::exec

#include "exec/system_scan.h"

namespace ppp::exec {

SystemTableScanOp::SystemTableScanOp(const catalog::Table* table,
                                     const std::string& alias)
    : table_(table), alias_(alias) {
  schema_ = table->RowSchemaForAlias(alias);
}

common::Status SystemTableScanOp::OpenImpl() {
  if (!materialized_) {
    PPP_ASSIGN_OR_RETURN(rows_, table_->MaterializeSystemRows());
    materialized_ = true;
  }
  pos_ = 0;
  return common::Status::OK();
}

common::Status SystemTableScanOp::NextBatchImpl(size_t max_rows,
                                                TupleBatch* batch,
                                                bool* eof) {
  *eof = false;
  while (batch->size() < max_rows) {
    if (pos_ >= rows_.size()) {
      *eof = true;
      break;
    }
    batch->tuples.push_back(rows_[pos_++]);
  }
  if (!transfers_.empty()) transfers_.FilterBatch(batch);
  return common::Status::OK();
}

std::string SystemTableScanOp::Describe() const {
  std::string out = "SystemTableScan(" + table_->name();
  if (alias_ != table_->name()) out += " AS " + alias_;
  return out + ")";
}

}  // namespace ppp::exec

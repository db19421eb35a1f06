#ifndef PPP_EXEC_SYSTEM_SCAN_H_
#define PPP_EXEC_SYSTEM_SCAN_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "catalog/table.h"
#include "exec/operator.h"
#include "exec/scan_ops.h"

namespace ppp::exec {

/// Scan of a catalog system table (ppp_query_log & co). The provider
/// snapshot is materialized once, at the first Open, and reused by rescans
/// — so the inner side of a nested-loop self-join and both sides of a
/// hash self-join see the same instant, and an introspection query never
/// observes rows it created itself (its own log record is appended after
/// its scans closed). Tuples come from memory, not the buffer pool, so a
/// system scan charges no I/O — matching the near-zero page cost the
/// optimizer estimated from the synthetic NumPages().
class SystemTableScanOp : public Operator {
 public:
  SystemTableScanOp(const catalog::Table* table, const std::string& alias);

  std::string Describe() const override;
  void AttachTransfer(std::shared_ptr<BloomTransfer> transfer,
                      size_t key_index) {
    transfers_.Attach(std::move(transfer), key_index);
  }

 protected:
  common::Status OpenImpl() override;
  common::Status NextBatchImpl(size_t max_rows, TupleBatch* batch,
                               bool* eof) override;
  void RefreshLocalStats() const override { transfers_.FoldStats(&stats_); }

 private:
  const catalog::Table* table_;
  std::string alias_;
  bool materialized_ = false;
  std::vector<types::Tuple> rows_;
  size_t pos_ = 0;
  TransferProbe transfers_;
};

}  // namespace ppp::exec

#endif  // PPP_EXEC_SYSTEM_SCAN_H_

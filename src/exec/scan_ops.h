#ifndef PPP_EXEC_SCAN_OPS_H_
#define PPP_EXEC_SCAN_OPS_H_

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "catalog/table.h"
#include "exec/operator.h"
#include "obs/span.h"
#include "storage/record_id.h"

namespace ppp::exec {

/// Probe-side half of predicate transfer, shared by the scan operators: a
/// set of transferred Bloom filters, each probed against one of the scan's
/// columns *before* any predicate above the scan runs. Filters that are
/// unpublished (the join build has not run yet) or killed pass everything
/// through — pruning is strictly best-effort, correctness comes from the
/// joins above.
class TransferProbe {
 public:
  void Attach(std::shared_ptr<BloomTransfer> transfer, size_t key_index) {
    slots_.push_back({std::move(transfer), key_index});
  }

  bool empty() const { return slots_.empty(); }

  /// Drops the rows of `batch` that fail an active transferred filter,
  /// keeping the survivors in order.
  void FilterBatch(TupleBatch* batch) const;

  /// Columnar equivalent: hashes each filter's key column from native
  /// column storage (consistent with Value::Hash) and narrows the
  /// selection vector — no tuples, no Value boxing.
  void FilterColumns(types::ColumnBatch* batch) const;

  /// Folds the attached transfers' counters into `stats` (EXPLAIN ANALYZE).
  void FoldStats(OperatorStats* stats) const;

 private:
  struct Slot {
    std::shared_ptr<BloomTransfer> transfer;
    size_t key_index;
  };

  /// The one probe routine: tests one row against every active filter in
  /// attach order and records each probe as it happens, so a kill switch
  /// takes effect from the very next row. `hash(key_index)` hashes the
  /// row's cell in that column. True when the row survives.
  template <typename HashFn>
  bool ProbeRow(const HashFn& hash) const;

  /// A "bloom.probe" span over one batch, when tracing is on and a filter
  /// is active.
  std::optional<obs::Span> ProbeSpan(size_t rows) const;

  std::vector<Slot> slots_;
};

/// Full scan of a base table in physical order.
class SeqScanOp : public Operator {
 public:
  SeqScanOp(const catalog::Table* table, const std::string& alias);

  std::string Describe() const override;
  void AttachTransfer(std::shared_ptr<BloomTransfer> transfer,
                      size_t key_index) {
    transfers_.Attach(std::move(transfer), key_index);
  }
  bool provides_columns() const override { return true; }

 protected:
  common::Status OpenImpl() override;
  common::Status NextBatchImpl(size_t max_rows, TupleBatch* batch,
                               bool* eof) override;
  /// Native columnar fill: deserializes heap records straight into column
  /// vectors (no Tuple/Value construction on the clean path).
  common::Status NextColumnBatchImpl(size_t max_rows,
                                     types::ColumnBatch* batch,
                                     bool* eof) override;
  void RefreshLocalStats() const override { transfers_.FoldStats(&stats_); }

 private:
  const catalog::Table* table_;
  std::string alias_;
  storage::HeapFile::Iterator it_;
  TransferProbe transfers_;
};

/// B-tree probe: fetches all tuples with `column == key`, or with
/// `lo <= column <= hi` for the range form. Output is in key order (the
/// B-tree leaf chain), so the plan's est_order on the index column is
/// physically honoured. The descent and the unclustered tuple fetches all
/// go through the buffer pool and are therefore counted as (mostly
/// random) I/O.
class IndexScanOp : public Operator {
 public:
  IndexScanOp(const catalog::Table* table, const std::string& alias,
              std::string column, int64_t key);
  /// Range form: inclusive [lo, hi].
  IndexScanOp(const catalog::Table* table, const std::string& alias,
              std::string column, int64_t lo, int64_t hi);

  std::string Describe() const override;
  void AttachTransfer(std::shared_ptr<BloomTransfer> transfer,
                      size_t key_index) {
    transfers_.Attach(std::move(transfer), key_index);
  }
  bool provides_columns() const override { return true; }

 protected:
  common::Status OpenImpl() override;
  common::Status NextBatchImpl(size_t max_rows, TupleBatch* batch,
                               bool* eof) override;
  common::Status NextColumnBatchImpl(size_t max_rows,
                                     types::ColumnBatch* batch,
                                     bool* eof) override;
  void RefreshLocalStats() const override { transfers_.FoldStats(&stats_); }

 private:
  const catalog::Table* table_;
  std::string alias_;
  std::string column_;
  int64_t lo_;
  int64_t hi_;
  std::vector<storage::RecordId> rids_;
  size_t pos_ = 0;
  TransferProbe transfers_;
};

}  // namespace ppp::exec

#endif  // PPP_EXEC_SCAN_OPS_H_

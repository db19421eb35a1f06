#ifndef PPP_EXEC_COLUMN_BUFFER_H_
#define PPP_EXEC_COLUMN_BUFFER_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "exec/operator.h"
#include "types/column_batch.h"
#include "types/tuple.h"
#include "types/value.h"

namespace ppp::exec {

/// Pulls one batch of up to `batch_size` rows from `op` into `batch`: with
/// `columns`, NextColumnBatch (native for scans and vectorized filters, the
/// row adapter otherwise); without it NextBatch into the scratch `rows`,
/// transposed with AppendTuple. The one pull behind ColumnBuffer and
/// ColumnCursor, so the operators above them have one implementation and
/// pin the same pages either way (ExecParams::vectorized picks `columns`).
common::Status PullColumnBatch(Operator* op, size_t batch_size, bool columns,
                               TupleBatch* rows, types::ColumnBatch* batch,
                               bool* eof);

/// A pipeline breaker's drained input, kept as the child's column batches.
/// HashJoin's build side, both MergeJoin inputs and Sort drain through it
/// and then bucket or order row positions; a Tuple is built only for a row
/// the operator emits (RowAsTuple).
class ColumnBuffer {
 public:
  /// One buffered row: its batch and its row within that batch.
  struct Pos {
    uint32_t batch;
    uint32_t row;
  };

  /// Opens `op` and drains it through PullColumnBatch, replacing any
  /// earlier contents. Batch objects are reused across refills.
  common::Status Fill(Operator* op, size_t batch_size, bool columns);

  /// The selected rows, in stream order.
  const std::vector<Pos>& rows() const { return rows_; }

  bool IsNull(Pos p, size_t col) const {
    return batches_[p.batch].IsNull(col, p.row);
  }
  types::Value GetValue(Pos p, size_t col) const {
    return batches_[p.batch].GetValue(col, p.row);
  }
  uint64_t HashCell(Pos p, size_t col) const {
    return batches_[p.batch].HashCell(col, p.row);
  }
  types::Tuple RowAsTuple(Pos p) const {
    return batches_[p.batch].RowAsTuple(p.row);
  }

  /// True when every batch stores column `col` as unboxed int64, so its
  /// cells compare as plain integers (Value::Compare's int64 case).
  bool NativeInt64(size_t col) const;
  int64_t Int64At(Pos p, size_t col) const {
    return batches_[p.batch].column(col).i64[p.row];
  }

  /// Value::Compare(cell, v) == 0 for a non-null cell of column `col`.
  bool CellEquals(Pos p, size_t col, const types::Value& v) const;

 private:
  std::vector<types::ColumnBatch> batches_;
  size_t num_batches_ = 0;  // Batches in use; the rest are kept for reuse.
  std::vector<Pos> rows_;
  TupleBatch row_batch_;  // Scratch for the row pull.
};

/// Row-at-a-time view of a child's column batches: NestedLoopJoin's inner,
/// probed in place, so a candidate pair whose predicate hits the §5.1
/// cache builds no row. Like RowCursor, the next batch is pulled (through
/// PullColumnBatch) only once the current one's selected rows are used up.
class ColumnCursor {
 public:
  ColumnCursor(Operator* child, bool columns)
      : child_(child), columns_(columns) {}

  /// (Re-)opens the child and drops any buffered rows.
  common::Status Open();

  /// Points *batch at the batch holding the next selected row and sets
  /// *row to its index there, or sets *batch to nullptr once the stream is
  /// exhausted. Both stay valid until the next Advance() or Open().
  common::Status Advance(size_t batch_size, const types::ColumnBatch** batch,
                         uint32_t* row);

 private:
  Operator* child_;
  bool columns_;
  types::ColumnBatch batch_;
  TupleBatch rows_;  // Scratch for the row pull.
  size_t pos_ = 0;   // Next index into batch_.selection().
  bool eof_ = false;
};

/// Rows of a ColumnBuffer stably ordered on one key column under
/// Value::Compare: NULL keys first (or dropped), then the rest. The keys are
/// pulled out beside the positions, as int64s when the column is native
/// int64 in every batch and as Values otherwise (boxed or mixed-type keys).
class SortedRun {
 public:
  /// Sorts `in`'s rows on column `col`; `drop_nulls` leaves NULL keys out
  /// (they never join).
  void Build(const ColumnBuffer& in, size_t col, bool drop_nulls);

  size_t size() const { return rows_.size(); }
  ColumnBuffer::Pos row(size_t i) const { return rows_[i]; }

  /// Value::Compare of this run's i-th key with `other`'s j-th key.
  int Compare(size_t i, const SortedRun& other, size_t j) const;

 private:
  types::Value Key(size_t i) const;

  std::vector<ColumnBuffer::Pos> rows_;
  size_t nulls_ = 0;  // Leading rows whose key is NULL.
  bool int64_ = false;
  /// Keys of rows_[nulls_..], in order: i64_ when int64_, else values_.
  std::vector<int64_t> i64_;
  std::vector<types::Value> values_;
};

}  // namespace ppp::exec

#endif  // PPP_EXEC_COLUMN_BUFFER_H_

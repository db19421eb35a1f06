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

  /// Opens `op` and drains it, replacing any earlier contents. `columns`
  /// pulls NextColumnBatch (native for scans and vectorized filters, the
  /// row adapter otherwise); without it the buffer pulls NextBatch and
  /// transposes each row batch with AppendTuple, so the operators above
  /// have one implementation either way. Batch objects are reused across
  /// refills (a nested-loop inner re-opens per outer row).
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

#ifndef PPP_TYPES_COLUMN_BATCH_H_
#define PPP_TYPES_COLUMN_BATCH_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "types/row_schema.h"
#include "types/tuple.h"

namespace ppp::types {

/// A column-major tuple batch with a selection vector.
///
/// Rows are stored as typed column vectors (int64/bool share one vector,
/// doubles their own, string payloads live back-to-back in a per-column
/// arena) plus a per-column null byte-vector, so cheap predicates run as
/// tight loops over contiguous primitive data instead of walking
/// std::variant tuples. Filters never copy rows: they narrow the
/// `selection()` vector — the ascending list of surviving row positions —
/// and downstream consumers either iterate the selection, densify once via
/// Compact(), or cross back into the row world through ToTuples().
///
/// A stored value whose runtime type disagrees with the declared column
/// type falls back to boxed Value storage for that whole column
/// (`Column::boxed`); vectorized kernels check for this and bail to scalar
/// evaluation, so the fast path never pays a per-row type tag.
class ColumnBatch {
 public:
  struct Column {
    TypeId type = TypeId::kInt64;
    /// kInt64 and kBool storage (bools as 0/1).
    std::vector<int64_t> i64;
    /// kDouble storage.
    std::vector<double> f64;
    /// kString storage: payload bytes in `arena`, per-row offset/length.
    std::string arena;
    std::vector<uint32_t> str_offset;
    std::vector<uint32_t> str_len;
    /// Per-row: 1 = SQL NULL (native vectors hold a zero placeholder).
    std::vector<uint8_t> nulls;
    /// True once any row mismatched the declared type: storage switches to
    /// `values` and the column is opaque to vectorized kernels.
    bool boxed = false;
    std::vector<Value> values;

    std::string_view StringAt(size_t row) const {
      return std::string_view(arena).substr(str_offset[row], str_len[row]);
    }
  };

  ColumnBatch() = default;
  explicit ColumnBatch(const RowSchema& schema) { Reset(schema); }

  /// Adopts `schema` and drops all rows. Keeps the columns' capacity when
  /// the schema is unchanged, so a reused batch allocates nothing steady
  /// state.
  void Reset(const RowSchema& schema);

  /// Drops all rows, keeping schema and capacity.
  void Clear();

  const RowSchema& schema() const { return schema_; }
  size_t num_columns() const { return columns_.size(); }
  size_t num_rows() const { return num_rows_; }

  const Column& column(size_t i) const { return columns_[i]; }

  /// Appends one row from the storage wire format (Tuple::Serialize), fully
  /// bypassing Tuple/Value construction on the clean path. The new row is
  /// selected. Takes a view so scans can decode straight out of a pinned
  /// page (HeapFile::Iterator::NextView) with no intermediate copy.
  common::Status AppendSerialized(std::string_view bytes);

  /// Appends one row from a Tuple (the adapter path for row-native
  /// producers). The value count must match the schema.
  void AppendTuple(const Tuple& tuple);

  /// -- Selection vector ----------------------------------------------------
  /// Always a valid ascending subset of [0, num_rows()); appends select the
  /// new row, filters narrow the vector in place.
  const std::vector<uint32_t>& selection() const { return selection_; }
  std::vector<uint32_t>* mutable_selection() { return &selection_; }
  size_t selected() const { return selection_.size(); }
  bool all_selected() const { return selection_.size() == num_rows_; }

  /// -- Row access ------------------------------------------------------------
  bool IsNull(size_t col, size_t row) const;
  Value GetValue(size_t col, size_t row) const;
  Tuple RowAsTuple(size_t row) const;

  /// `left ++ RowAsTuple(row)`, built in one pass: a nested-loop join's
  /// candidate pair (RowAsTuple when `left` is empty).
  Tuple JoinRow(const Tuple& left, size_t row) const;

  /// Overwrites *out with the bytes Tuple::SerializeProjection gives for
  /// `JoinRow(left, row)`, writing each cell straight from column storage
  /// with no Tuple built: the §5.1 cache key of a predicate's input
  /// columns, for a row of this batch (`left` empty) or a nested-loop
  /// candidate pair. `indexes` below left.NumValues() read `left`.
  void SerializeProjection(const Tuple& left, size_t row,
                           const std::vector<size_t>& indexes,
                           std::string* out) const;

  /// Value::Hash of the cell, computed from native storage without
  /// building the Value: the one cell hash the Bloom-transfer probe and the
  /// hash-join build share, so both agree with Value::Hash on the row path.
  uint64_t HashCell(size_t col, size_t row) const;

  /// Densifies: physically drops unselected rows so selection() becomes
  /// all-rows again, for a consumer that indexes columns positionally.
  void Compact();

  /// Row-world shim: appends the selected rows, in order, as Tuples.
  void ToTuples(std::vector<Tuple>* out) const;

 private:
  /// Converts a column to boxed Value storage (first type mismatch).
  void BoxColumn(size_t col);
  void AppendValue(size_t col, const Value& v);

  RowSchema schema_;
  std::vector<Column> columns_;
  std::vector<uint32_t> selection_;
  size_t num_rows_ = 0;
};

}  // namespace ppp::types

#endif  // PPP_TYPES_COLUMN_BATCH_H_

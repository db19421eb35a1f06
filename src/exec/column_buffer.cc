#include "exec/column_buffer.h"

#include <algorithm>
#include <numeric>

namespace ppp::exec {

common::Status PullColumnBatch(Operator* op, size_t batch_size, bool columns,
                               TupleBatch* rows, types::ColumnBatch* batch,
                               bool* eof) {
  if (columns) return op->NextColumnBatch(batch_size, batch, eof);
  rows->clear();
  PPP_RETURN_IF_ERROR(op->NextBatch(batch_size, rows, eof));
  batch->Reset(op->schema());
  for (const types::Tuple& tuple : rows->tuples) batch->AppendTuple(tuple);
  return common::Status::OK();
}

common::Status ColumnBuffer::Fill(Operator* op, size_t batch_size,
                                  bool columns) {
  num_batches_ = 0;
  rows_.clear();
  PPP_RETURN_IF_ERROR(op->Open());
  bool eof = false;
  while (!eof) {
    if (num_batches_ == batches_.size()) batches_.emplace_back();
    types::ColumnBatch& batch = batches_[num_batches_];
    PPP_RETURN_IF_ERROR(
        PullColumnBatch(op, batch_size, columns, &row_batch_, &batch, &eof));
    if (batch.selected() == 0) continue;
    const uint32_t index = static_cast<uint32_t>(num_batches_++);
    for (const uint32_t row : batch.selection()) rows_.push_back({index, row});
  }
  return common::Status::OK();
}

bool ColumnBuffer::NativeInt64(size_t col) const {
  for (size_t b = 0; b < num_batches_; ++b) {
    const types::ColumnBatch::Column& column = batches_[b].column(col);
    if (column.boxed || column.type != types::TypeId::kInt64) return false;
  }
  return true;
}

bool ColumnBuffer::CellEquals(Pos p, size_t col,
                              const types::Value& v) const {
  const types::ColumnBatch::Column& column = batches_[p.batch].column(col);
  if (!column.boxed && column.type == types::TypeId::kInt64 &&
      v.type() == types::TypeId::kInt64) {
    return column.i64[p.row] == v.AsInt64();
  }
  return GetValue(p, col).Compare(v) == 0;
}

common::Status ColumnCursor::Open() {
  batch_.Clear();
  pos_ = 0;
  eof_ = false;
  return child_->Open();
}

common::Status ColumnCursor::Advance(size_t batch_size,
                                     const types::ColumnBatch** batch,
                                     uint32_t* row) {
  while (pos_ >= batch_.selected()) {
    if (eof_) {
      *batch = nullptr;
      return common::Status::OK();
    }
    pos_ = 0;
    PPP_RETURN_IF_ERROR(PullColumnBatch(child_, batch_size, columns_, &rows_,
                                        &batch_, &eof_));
  }
  *batch = &batch_;
  *row = batch_.selection()[pos_++];
  return common::Status::OK();
}

void SortedRun::Build(const ColumnBuffer& in, size_t col, bool drop_nulls) {
  const std::vector<ColumnBuffer::Pos>& all = in.rows();
  rows_.clear();
  i64_.clear();
  values_.clear();
  int64_ = in.NativeInt64(col);
  // NULL sorts first under Value::Compare and ties with NULL, so a stable
  // sort puts the NULL-key rows up front in stream order.
  std::vector<uint32_t> keyed;  // Indexes into `all` of non-NULL keys.
  keyed.reserve(all.size());
  for (uint32_t i = 0; i < all.size(); ++i) {
    if (!in.IsNull(all[i], col)) {
      keyed.push_back(i);
    } else if (!drop_nulls) {
      rows_.push_back(all[i]);
    }
  }
  nulls_ = rows_.size();
  rows_.reserve(nulls_ + keyed.size());
  if (int64_) {
    struct Key {
      int64_t key;
      uint32_t index;
    };
    std::vector<Key> keys;
    keys.reserve(keyed.size());
    for (const uint32_t i : keyed) keys.push_back({in.Int64At(all[i], col), i});
    // Ties break on stream position: a stable sort.
    std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
      return a.key < b.key || (a.key == b.key && a.index < b.index);
    });
    i64_.reserve(keys.size());
    for (const Key& k : keys) {
      rows_.push_back(all[k.index]);
      i64_.push_back(k.key);
    }
    return;
  }
  std::vector<types::Value> keys;
  keys.reserve(keyed.size());
  for (const uint32_t i : keyed) keys.push_back(in.GetValue(all[i], col));
  std::vector<uint32_t> order(keyed.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&keys](uint32_t a, uint32_t b) {
                     return keys[a].Compare(keys[b]) < 0;
                   });
  values_.reserve(order.size());
  for (const uint32_t o : order) {
    rows_.push_back(all[keyed[o]]);
    values_.push_back(std::move(keys[o]));
  }
}

types::Value SortedRun::Key(size_t i) const {
  if (i < nulls_) return types::Value();
  return int64_ ? types::Value(i64_[i - nulls_]) : values_[i - nulls_];
}

int SortedRun::Compare(size_t i, const SortedRun& other, size_t j) const {
  const bool a_null = i < nulls_;
  const bool b_null = j < other.nulls_;
  if (a_null || b_null) return a_null == b_null ? 0 : (a_null ? -1 : 1);
  if (int64_ && other.int64_) {
    const int64_t x = i64_[i - nulls_];
    const int64_t y = other.i64_[j - other.nulls_];
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  return Key(i).Compare(other.Key(j));
}

}  // namespace ppp::exec

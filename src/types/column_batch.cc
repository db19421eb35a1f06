#include "types/column_batch.h"

#include <cstring>
#include <functional>

#include "common/logging.h"

namespace ppp::types {

namespace {

template <typename T>
void AppendPod(std::string* out, T v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

template <typename T>
bool ReadPod(const char* data, size_t size, size_t* pos, T* out) {
  if (*pos + sizeof(T) > size) return false;
  std::memcpy(out, data + *pos, sizeof(T));
  *pos += sizeof(T);
  return true;
}

}  // namespace

void ColumnBatch::Reset(const RowSchema& schema) {
  if (schema_ == schema) {
    Clear();
    return;
  }
  schema_ = schema;
  columns_.assign(schema.NumColumns(), Column());
  for (size_t i = 0; i < columns_.size(); ++i) {
    columns_[i].type = schema.Column(i).type;
    // A declared-NULL column type (untyped projections) has no native
    // representation; box it from the start.
    columns_[i].boxed = columns_[i].type == TypeId::kNull;
  }
  selection_.clear();
  num_rows_ = 0;
}

void ColumnBatch::Clear() {
  for (Column& col : columns_) {
    col.i64.clear();
    col.f64.clear();
    col.arena.clear();
    col.str_offset.clear();
    col.str_len.clear();
    col.nulls.clear();
    col.values.clear();
    // `boxed` is sticky only for declared-NULL columns; data-driven boxing
    // resets with the data.
    col.boxed = col.type == TypeId::kNull;
  }
  selection_.clear();
  num_rows_ = 0;
}

void ColumnBatch::BoxColumn(size_t col_index) {
  Column& col = columns_[col_index];
  if (col.boxed) return;
  col.values.reserve(num_rows_ + 1);
  for (size_t row = 0; row < num_rows_; ++row) {
    col.values.push_back(GetValue(col_index, row));
  }
  col.boxed = true;
  col.i64.clear();
  col.f64.clear();
  col.arena.clear();
  col.str_offset.clear();
  col.str_len.clear();
}

void ColumnBatch::AppendValue(size_t col_index, const Value& v) {
  Column& col = columns_[col_index];
  if (!col.boxed && !v.is_null() && v.type() != col.type) BoxColumn(col_index);
  if (col.boxed) {
    col.nulls.push_back(v.is_null() ? 1 : 0);
    col.values.push_back(v);
    return;
  }
  col.nulls.push_back(v.is_null() ? 1 : 0);
  switch (col.type) {
    case TypeId::kInt64:
      col.i64.push_back(v.is_null() ? 0 : v.AsInt64());
      break;
    case TypeId::kBool:
      col.i64.push_back(v.is_null() ? 0 : (v.AsBool() ? 1 : 0));
      break;
    case TypeId::kDouble:
      col.f64.push_back(v.is_null() ? 0.0 : v.AsDouble());
      break;
    case TypeId::kString: {
      col.str_offset.push_back(static_cast<uint32_t>(col.arena.size()));
      if (v.is_null()) {
        col.str_len.push_back(0);
      } else {
        const std::string& s = v.AsString();
        col.arena.append(s);
        col.str_len.push_back(static_cast<uint32_t>(s.size()));
      }
      break;
    }
    case TypeId::kNull:
      break;  // unreachable: declared-NULL columns are always boxed.
  }
}

void ColumnBatch::AppendTuple(const Tuple& tuple) {
  PPP_CHECK(tuple.NumValues() == columns_.size())
      << "tuple width " << tuple.NumValues() << " vs schema width "
      << columns_.size();
  for (size_t c = 0; c < columns_.size(); ++c) {
    AppendValue(c, tuple.Get(c));
  }
  selection_.push_back(static_cast<uint32_t>(num_rows_));
  ++num_rows_;
}

common::Status ColumnBatch::AppendSerialized(std::string_view bytes) {
  const char* data = bytes.data();
  const size_t size = bytes.size();
  size_t pos = 0;
  uint32_t count = 0;
  if (!ReadPod(data, size, &pos, &count)) {
    return common::Status::InvalidArgument("tuple header truncated");
  }
  if (count != columns_.size()) {
    return common::Status::InvalidArgument(
        "row width " + std::to_string(count) + " does not match schema width " +
        std::to_string(columns_.size()));
  }
  for (uint32_t c = 0; c < count; ++c) {
    Column& col = columns_[c];
    uint8_t tag = 0;
    if (!ReadPod(data, size, &pos, &tag)) {
      return common::Status::InvalidArgument("tuple value tag truncated");
    }
    const TypeId type = static_cast<TypeId>(tag);
    // Clean fast path: the stored tag matches the declared column type (or
    // is NULL) and the column has native storage.
    if (!col.boxed) {
      if (type == TypeId::kNull) {
        col.nulls.push_back(1);
        switch (col.type) {
          case TypeId::kInt64:
          case TypeId::kBool:
            col.i64.push_back(0);
            break;
          case TypeId::kDouble:
            col.f64.push_back(0.0);
            break;
          case TypeId::kString:
            col.str_offset.push_back(static_cast<uint32_t>(col.arena.size()));
            col.str_len.push_back(0);
            break;
          case TypeId::kNull:
            break;
        }
        continue;
      }
      if (type == col.type) {
        col.nulls.push_back(0);
        switch (col.type) {
          case TypeId::kInt64: {
            int64_t v = 0;
            if (!ReadPod(data, size, &pos, &v)) {
              return common::Status::InvalidArgument("tuple int64 truncated");
            }
            col.i64.push_back(v);
            continue;
          }
          case TypeId::kDouble: {
            double v = 0;
            if (!ReadPod(data, size, &pos, &v)) {
              return common::Status::InvalidArgument("tuple double truncated");
            }
            col.f64.push_back(v);
            continue;
          }
          case TypeId::kBool: {
            uint8_t v = 0;
            if (!ReadPod(data, size, &pos, &v)) {
              return common::Status::InvalidArgument("tuple bool truncated");
            }
            col.i64.push_back(v != 0 ? 1 : 0);
            continue;
          }
          case TypeId::kString: {
            uint32_t len = 0;
            if (!ReadPod(data, size, &pos, &len)) {
              return common::Status::InvalidArgument(
                  "tuple string len truncated");
            }
            if (pos + len > size) {
              return common::Status::InvalidArgument("tuple string truncated");
            }
            col.str_offset.push_back(static_cast<uint32_t>(col.arena.size()));
            col.str_len.push_back(len);
            col.arena.append(data + pos, len);
            pos += len;
            continue;
          }
          case TypeId::kNull:
            break;
        }
      }
    }
    // Mismatch (or already-boxed column): decode a Value the slow way.
    Value v;
    switch (type) {
      case TypeId::kNull:
        break;
      case TypeId::kInt64: {
        int64_t raw = 0;
        if (!ReadPod(data, size, &pos, &raw)) {
          return common::Status::InvalidArgument("tuple int64 truncated");
        }
        v = Value(raw);
        break;
      }
      case TypeId::kDouble: {
        double raw = 0;
        if (!ReadPod(data, size, &pos, &raw)) {
          return common::Status::InvalidArgument("tuple double truncated");
        }
        v = Value(raw);
        break;
      }
      case TypeId::kBool: {
        uint8_t raw = 0;
        if (!ReadPod(data, size, &pos, &raw)) {
          return common::Status::InvalidArgument("tuple bool truncated");
        }
        v = Value(raw != 0);
        break;
      }
      case TypeId::kString: {
        uint32_t len = 0;
        if (!ReadPod(data, size, &pos, &len)) {
          return common::Status::InvalidArgument("tuple string len truncated");
        }
        if (pos + len > size) {
          return common::Status::InvalidArgument("tuple string truncated");
        }
        v = Value(std::string(data + pos, len));
        pos += len;
        break;
      }
      default:
        return common::Status::InvalidArgument("unknown value tag " +
                                               std::to_string(tag));
    }
    AppendValue(c, v);
  }
  selection_.push_back(static_cast<uint32_t>(num_rows_));
  ++num_rows_;
  return common::Status::OK();
}

bool ColumnBatch::IsNull(size_t col, size_t row) const {
  return columns_[col].nulls[row] != 0;
}

Value ColumnBatch::GetValue(size_t col_index, size_t row) const {
  const Column& col = columns_[col_index];
  if (col.boxed) return col.values[row];
  if (col.nulls[row] != 0) return Value::Null();
  switch (col.type) {
    case TypeId::kInt64:
      return Value(col.i64[row]);
    case TypeId::kBool:
      return Value(col.i64[row] != 0);
    case TypeId::kDouble:
      return Value(col.f64[row]);
    case TypeId::kString:
      return Value(std::string(col.StringAt(row)));
    case TypeId::kNull:
      break;
  }
  return Value::Null();
}

Tuple ColumnBatch::RowAsTuple(size_t row) const {
  return JoinRow(Tuple(), row);
}

Tuple ColumnBatch::JoinRow(const Tuple& left, size_t row) const {
  std::vector<Value> values;
  values.reserve(left.NumValues() + columns_.size());
  values.insert(values.end(), left.values().begin(), left.values().end());
  for (size_t c = 0; c < columns_.size(); ++c) {
    values.push_back(GetValue(c, row));
  }
  return Tuple(std::move(values));
}

void ColumnBatch::SerializeProjection(const Tuple& left, size_t row,
                                      const std::vector<size_t>& indexes,
                                      std::string* out) const {
  out->clear();
  AppendPod<uint32_t>(out, static_cast<uint32_t>(indexes.size()));
  const size_t split = left.NumValues();
  for (const size_t index : indexes) {
    if (index < split) {
      Tuple::SerializeValue(left.Get(index), out);
      continue;
    }
    const Column& col = columns_[index - split];
    if (col.boxed) {
      Tuple::SerializeValue(col.values[row], out);
      continue;
    }
    // The tag and payload Tuple::SerializeValue writes for GetValue(...).
    if (col.nulls[row] != 0) {
      AppendPod<uint8_t>(out, static_cast<uint8_t>(TypeId::kNull));
      continue;
    }
    AppendPod<uint8_t>(out, static_cast<uint8_t>(col.type));
    switch (col.type) {
      case TypeId::kInt64:
        AppendPod<int64_t>(out, col.i64[row]);
        break;
      case TypeId::kBool:
        AppendPod<uint8_t>(out, col.i64[row] != 0 ? 1 : 0);
        break;
      case TypeId::kDouble:
        AppendPod<double>(out, col.f64[row]);
        break;
      case TypeId::kString: {
        AppendPod<uint32_t>(out, col.str_len[row]);
        out->append(col.arena, col.str_offset[row], col.str_len[row]);
        break;
      }
      case TypeId::kNull:
        break;  // unreachable: declared-NULL columns are always boxed.
    }
  }
}

uint64_t ColumnBatch::HashCell(size_t col_index, size_t row) const {
  const Column& col = columns_[col_index];
  if (col.boxed) return static_cast<uint64_t>(col.values[row].Hash());
  if (col.nulls[row] != 0) return static_cast<uint64_t>(Value().Hash());
  switch (col.type) {
    case TypeId::kInt64: {
      // Value::Hash hashes an int64 through its double form when exact, so
      // 3 and 3.0 (equal under Compare) hash alike.
      const int64_t v = col.i64[row];
      const double d = static_cast<double>(v);
      if (FitsInt64(d) && static_cast<int64_t>(d) == v) {
        return static_cast<uint64_t>(HashDouble(d));
      }
      return static_cast<uint64_t>(std::hash<int64_t>()(v));
    }
    case TypeId::kBool:
      return static_cast<uint64_t>(HashDouble(col.i64[row] != 0 ? 1.0 : 0.0));
    case TypeId::kDouble:
      return static_cast<uint64_t>(HashDouble(col.f64[row]));
    case TypeId::kString:
      return static_cast<uint64_t>(
          std::hash<std::string_view>()(col.StringAt(row)));
    case TypeId::kNull:
      break;
  }
  return static_cast<uint64_t>(Value().Hash());
}

void ColumnBatch::Compact() {
  if (all_selected()) return;
  for (Column& col : columns_) {
    if (col.boxed) {
      std::vector<Value> values;
      std::vector<uint8_t> nulls;
      values.reserve(selection_.size());
      nulls.reserve(selection_.size());
      for (uint32_t row : selection_) {
        values.push_back(std::move(col.values[row]));
        nulls.push_back(col.nulls[row]);
      }
      col.values = std::move(values);
      col.nulls = std::move(nulls);
      continue;
    }
    size_t out = 0;
    switch (col.type) {
      case TypeId::kInt64:
      case TypeId::kBool:
        for (uint32_t row : selection_) col.i64[out++] = col.i64[row];
        col.i64.resize(out);
        break;
      case TypeId::kDouble:
        for (uint32_t row : selection_) col.f64[out++] = col.f64[row];
        col.f64.resize(out);
        break;
      case TypeId::kString: {
        std::string arena;
        std::vector<uint32_t> offsets;
        std::vector<uint32_t> lens;
        offsets.reserve(selection_.size());
        lens.reserve(selection_.size());
        for (uint32_t row : selection_) {
          const std::string_view s = col.StringAt(row);
          offsets.push_back(static_cast<uint32_t>(arena.size()));
          lens.push_back(static_cast<uint32_t>(s.size()));
          arena.append(s);
        }
        col.arena = std::move(arena);
        col.str_offset = std::move(offsets);
        col.str_len = std::move(lens);
        break;
      }
      case TypeId::kNull:
        break;
    }
    size_t null_out = 0;
    for (uint32_t row : selection_) col.nulls[null_out++] = col.nulls[row];
    col.nulls.resize(null_out);
  }
  num_rows_ = selection_.size();
  for (size_t i = 0; i < num_rows_; ++i) {
    selection_[i] = static_cast<uint32_t>(i);
  }
}

void ColumnBatch::ToTuples(std::vector<Tuple>* out) const {
  out->reserve(out->size() + selection_.size());
  for (uint32_t row : selection_) {
    out->push_back(RowAsTuple(row));
  }
}

}  // namespace ppp::types

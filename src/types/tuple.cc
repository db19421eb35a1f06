#include "types/tuple.h"

#include <cstring>

#include "common/string_util.h"

namespace ppp::types {

Tuple Tuple::Concat(const Tuple& left, const Tuple& right) {
  std::vector<Value> values;
  values.reserve(left.values_.size() + right.values_.size());
  values.insert(values.end(), left.values_.begin(), left.values_.end());
  values.insert(values.end(), right.values_.begin(), right.values_.end());
  return Tuple(std::move(values));
}

Tuple Tuple::Concat(Tuple&& left, const Tuple& right) {
  std::vector<Value> values = std::move(left.values_);
  values.reserve(values.size() + right.values_.size());
  values.insert(values.end(), right.values_.begin(), right.values_.end());
  return Tuple(std::move(values));
}

namespace {

void AppendRaw(std::string* out, const void* data, size_t len) {
  out->append(reinterpret_cast<const char*>(data), len);
}

template <typename T>
void AppendPod(std::string* out, T v) {
  AppendRaw(out, &v, sizeof(v));
}

template <typename T>
bool ReadPod(std::string_view bytes, size_t* pos, T* out) {
  if (*pos + sizeof(T) > bytes.size()) return false;
  std::memcpy(out, bytes.data() + *pos, sizeof(T));
  *pos += sizeof(T);
  return true;
}

}  // namespace

void Tuple::SerializeValue(const Value& v, std::string* out) {
  AppendPod<uint8_t>(out, static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case TypeId::kNull:
      break;
    case TypeId::kInt64:
      AppendPod<int64_t>(out, v.AsInt64());
      break;
    case TypeId::kDouble:
      AppendPod<double>(out, v.AsDouble());
      break;
    case TypeId::kBool:
      AppendPod<uint8_t>(out, v.AsBool() ? 1 : 0);
      break;
    case TypeId::kString: {
      const std::string& s = v.AsString();
      AppendPod<uint32_t>(out, static_cast<uint32_t>(s.size()));
      AppendRaw(out, s.data(), s.size());
      break;
    }
  }
}

std::string Tuple::Serialize() const {
  std::string out;
  AppendPod<uint32_t>(&out, static_cast<uint32_t>(values_.size()));
  for (const Value& v : values_) SerializeValue(v, &out);
  return out;
}

void Tuple::SerializeProjection(const std::vector<size_t>& indexes,
                                std::string* out) const {
  out->clear();
  AppendPod<uint32_t>(out, static_cast<uint32_t>(indexes.size()));
  for (const size_t index : indexes) SerializeValue(values_[index], out);
}

common::Result<Tuple> Tuple::Deserialize(std::string_view bytes) {
  size_t pos = 0;
  uint32_t count = 0;
  if (!ReadPod(bytes, &pos, &count)) {
    return common::Status::InvalidArgument("tuple header truncated");
  }
  std::vector<Value> values;
  values.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint8_t tag = 0;
    if (!ReadPod(bytes, &pos, &tag)) {
      return common::Status::InvalidArgument("tuple value tag truncated");
    }
    switch (static_cast<TypeId>(tag)) {
      case TypeId::kNull:
        values.emplace_back();
        break;
      case TypeId::kInt64: {
        int64_t v = 0;
        if (!ReadPod(bytes, &pos, &v)) {
          return common::Status::InvalidArgument("tuple int64 truncated");
        }
        values.emplace_back(v);
        break;
      }
      case TypeId::kDouble: {
        double v = 0;
        if (!ReadPod(bytes, &pos, &v)) {
          return common::Status::InvalidArgument("tuple double truncated");
        }
        values.emplace_back(v);
        break;
      }
      case TypeId::kBool: {
        uint8_t v = 0;
        if (!ReadPod(bytes, &pos, &v)) {
          return common::Status::InvalidArgument("tuple bool truncated");
        }
        values.emplace_back(v != 0);
        break;
      }
      case TypeId::kString: {
        uint32_t len = 0;
        if (!ReadPod(bytes, &pos, &len)) {
          return common::Status::InvalidArgument("tuple string len truncated");
        }
        if (pos + len > bytes.size()) {
          return common::Status::InvalidArgument("tuple string truncated");
        }
        values.emplace_back(std::string(bytes.substr(pos, len)));
        pos += len;
        break;
      }
      default:
        return common::Status::InvalidArgument("unknown value tag " +
                                               std::to_string(tag));
    }
  }
  return Tuple(std::move(values));
}

std::string Tuple::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(values_.size());
  for (const Value& v : values_) parts.push_back(v.ToString());
  return "(" + common::Join(parts, ", ") + ")";
}

bool Tuple::operator==(const Tuple& other) const {
  if (values_.size() != other.values_.size()) return false;
  for (size_t i = 0; i < values_.size(); ++i) {
    if (values_[i] != other.values_[i]) return false;
  }
  return true;
}

}  // namespace ppp::types

#include "types/value.h"

#include <cmath>

#include "common/logging.h"
#include "common/string_util.h"

namespace ppp::types {

const char* TypeIdName(TypeId type) {
  switch (type) {
    case TypeId::kNull:
      return "NULL";
    case TypeId::kInt64:
      return "INT64";
    case TypeId::kDouble:
      return "DOUBLE";
    case TypeId::kString:
      return "STRING";
    case TypeId::kBool:
      return "BOOL";
  }
  return "UNKNOWN";
}

double Value::AsNumeric() const {
  switch (type()) {
    case TypeId::kInt64:
      return static_cast<double>(AsInt64());
    case TypeId::kDouble:
      return AsDouble();
    case TypeId::kBool:
      return AsBool() ? 1.0 : 0.0;
    default:
      PPP_CHECK(false) << "AsNumeric on non-numeric value " << ToString();
      return 0.0;
  }
}

namespace {
bool IsNumeric(TypeId t) {
  return t == TypeId::kInt64 || t == TypeId::kDouble || t == TypeId::kBool;
}
}  // namespace

int Value::Compare(const Value& other) const {
  const TypeId a = type();
  const TypeId b = other.type();
  if (a == TypeId::kNull || b == TypeId::kNull) {
    if (a == b) return 0;
    return a == TypeId::kNull ? -1 : 1;
  }
  if (IsNumeric(a) && IsNumeric(b)) {
    // Compare int64/int64 exactly; mixed numeric via double.
    if (a == TypeId::kInt64 && b == TypeId::kInt64) {
      const int64_t x = AsInt64();
      const int64_t y = other.AsInt64();
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    const double x = AsNumeric();
    const double y = other.AsNumeric();
    const bool x_nan = std::isnan(x);
    const bool y_nan = std::isnan(y);
    if (x_nan || y_nan) return x_nan == y_nan ? 0 : (x_nan ? 1 : -1);
    return x < y ? -1 : (x > y ? 1 : 0);
  }
  if (a == TypeId::kString && b == TypeId::kString) {
    const int c = AsString().compare(other.AsString());
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  // Heterogeneous (string vs numeric): order by type id for determinism.
  return static_cast<int>(a) < static_cast<int>(b) ? -1 : 1;
}

size_t Value::Hash() const {
  switch (type()) {
    case TypeId::kNull:
      return 0x9E3779B9u;
    case TypeId::kInt64: {
      // Hash integral values via their double representation when exact, so
      // that 3 and 3.0 (which compare equal) hash identically. Near
      // INT64_MAX the double rounds up to 2^63, outside int64.
      const int64_t v = AsInt64();
      const double d = static_cast<double>(v);
      if (FitsInt64(d) && static_cast<int64_t>(d) == v) {
        return HashDouble(d);
      }
      return std::hash<int64_t>()(v);
    }
    case TypeId::kDouble:
      return HashDouble(AsDouble());
    case TypeId::kBool:
      return HashDouble(AsBool() ? 1.0 : 0.0);
    case TypeId::kString:
      return std::hash<std::string>()(AsString());
  }
  return 0;
}

std::string Value::ToString() const {
  switch (type()) {
    case TypeId::kNull:
      return "NULL";
    case TypeId::kInt64:
      return std::to_string(AsInt64());
    case TypeId::kDouble:
      return common::StringPrintf("%g", AsDouble());
    case TypeId::kBool:
      return AsBool() ? "true" : "false";
    case TypeId::kString:
      return "'" + AsString() + "'";
  }
  return "?";
}

}  // namespace ppp::types

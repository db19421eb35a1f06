#ifndef PPP_TYPES_VALUE_H_
#define PPP_TYPES_VALUE_H_

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <variant>

namespace ppp::types {

/// Column data types supported by the engine. The paper's benchmark schema
/// only needs integers (join/selection attributes) and fixed-width padding,
/// but strings and doubles make the library usable beyond the reproduction.
enum class TypeId : uint8_t {
  kNull = 0,
  kInt64 = 1,
  kDouble = 2,
  kString = 3,
  kBool = 4,
};

const char* TypeIdName(TypeId type);

/// A dynamically typed scalar. Values are small and freely copyable;
/// strings use std::string storage.
class Value {
 public:
  /// Constructs SQL NULL.
  Value() : data_(std::monostate{}) {}
  static Value Null() { return Value(); }

  explicit Value(int64_t v) : data_(v) {}
  explicit Value(double v) : data_(v) {}
  explicit Value(std::string v) : data_(std::move(v)) {}
  explicit Value(const char* v) : data_(std::string(v)) {}
  explicit Value(bool v) : data_(v) {}

  TypeId type() const {
    switch (data_.index()) {
      case 0:
        return TypeId::kNull;
      case 1:
        return TypeId::kInt64;
      case 2:
        return TypeId::kDouble;
      case 3:
        return TypeId::kString;
      case 4:
        return TypeId::kBool;
    }
    return TypeId::kNull;
  }

  bool is_null() const { return data_.index() == 0; }

  /// Typed accessors; the caller must check type() first (asserts on
  /// mismatch in debug builds).
  int64_t AsInt64() const { return std::get<int64_t>(data_); }
  double AsDouble() const { return std::get<double>(data_); }
  const std::string& AsString() const { return std::get<std::string>(data_); }
  bool AsBool() const { return std::get<bool>(data_); }

  /// Numeric view: int64 and double both convert; asserts otherwise.
  double AsNumeric() const;

  /// Three-way comparison usable as a sort key. NULL sorts first; values of
  /// different numeric types compare numerically, with NaN equal to NaN and
  /// above every other number (PostgreSQL's order); comparing a string with
  /// a number orders by type id (deterministic, never aborts).
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  /// Stable hash, consistent with operator== (numeric 3 == 3.0 hash alike).
  size_t Hash() const;

  /// Display form: NULL, 42, 3.5, 'text', true.
  std::string ToString() const;

 private:
  std::variant<std::monostate, int64_t, double, std::string, bool> data_;
};

/// True when `d` lies in int64's range, [-2^63, 2^63), so that
/// static_cast<int64_t>(d) is defined. False for NaN and the infinities.
inline bool FitsInt64(double d) { return d >= -0x1p63 && d < 0x1p63; }

/// The hash of a double under Value::Hash: -0.0 and 0.0 hash alike, and so
/// does every NaN payload (Compare makes all NaNs equal).
inline size_t HashDouble(double d) {
  if (std::isnan(d)) d = std::numeric_limits<double>::quiet_NaN();
  return std::hash<double>()(d);
}

struct ValueHasher {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

}  // namespace ppp::types

#endif  // PPP_TYPES_VALUE_H_

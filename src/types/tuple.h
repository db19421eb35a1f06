#ifndef PPP_TYPES_TUPLE_H_
#define PPP_TYPES_TUPLE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "types/row_schema.h"
#include "types/value.h"

namespace ppp::types {

/// A row of Values. Tuples are passed by value between executor operators;
/// the vector is small (a handful of columns in the benchmark workload).
class Tuple {
 public:
  Tuple() = default;
  explicit Tuple(std::vector<Value> values) : values_(std::move(values)) {}

  size_t NumValues() const { return values_.size(); }
  const Value& Get(size_t i) const { return values_[i]; }
  void Set(size_t i, Value v) { values_[i] = std::move(v); }
  const std::vector<Value>& values() const { return values_; }

  /// Row concatenation (join output).
  static Tuple Concat(const Tuple& left, const Tuple& right);

  /// Move form for the probe-passthrough case: a join emitting its last
  /// output for `left` steals the outer tuple's values (one reserve, no
  /// per-value copies).
  static Tuple Concat(Tuple&& left, const Tuple& right);

  /// Serializes to a self-describing byte string (type tags + payloads),
  /// independent of any schema. Used by the storage layer.
  std::string Serialize() const;

  /// Overwrites *out with the bytes Serialize() gives for the tuple of the
  /// values at `indexes`, without building it: the §5.1 cache key of a
  /// predicate's input columns. ColumnBatch::SerializeProjection writes the
  /// same bytes from column storage.
  void SerializeProjection(const std::vector<size_t>& indexes,
                           std::string* out) const;

  /// Appends one value's Serialize() encoding (type tag, then payload).
  static void SerializeValue(const Value& v, std::string* out);

  /// Parses a byte string produced by Serialize().
  static common::Result<Tuple> Deserialize(std::string_view bytes);

  /// "(1, 'x', NULL)".
  std::string ToString() const;

  bool operator==(const Tuple& other) const;

 private:
  std::vector<Value> values_;
};

}  // namespace ppp::types

#endif  // PPP_TYPES_TUPLE_H_

#include "exec/vector_filter.h"

#include <cmath>
#include <string_view>
#include <utility>

namespace ppp::exec {

namespace {

using types::ColumnBatch;
using types::TypeId;

/// Side accessors. The pointer members make the "which storage" decision
/// loop-invariant; the hot benchmark shapes (int64 column vs int64
/// constant, double column vs double constant) reduce to a single indexed
/// load per row.
template <typename T>
struct NumAcc {
  const T* data = nullptr;  // null = constant operand
  T constant = 0;
  T operator()(uint32_t row) const {
    return data != nullptr ? data[row] : constant;
  }
};

struct StrAcc {
  const ColumnBatch::Column* col = nullptr;  // null = constant operand
  std::string_view constant;
  std::string_view operator()(uint32_t row) const {
    return col != nullptr ? col->StringAt(row) : constant;
  }
};

/// The filtering loop, compressing the selection vector in place (writes
/// trail reads, so aliasing is safe). `cmp` receives the two operand values
/// and must encode the comparison exactly as Value::Compare's three-way
/// ordering would — see the comparator definitions in DispatchOp.
template <typename L, typename R, typename Cmp>
void Kernel(std::vector<uint32_t>* selection, L lhs, R rhs,
            const uint8_t* lhs_nulls, const uint8_t* rhs_nulls,
            std::vector<uint8_t>* maybe_null, Cmp cmp) {
  std::vector<uint32_t>& sel = *selection;
  const size_t count = sel.size();
  size_t out = 0;
  if (lhs_nulls == nullptr && rhs_nulls == nullptr) {
    for (size_t i = 0; i < count; ++i) {
      const uint32_t row = sel[i];
      if (cmp(lhs(row), rhs(row))) sel[out++] = row;
    }
  } else if (maybe_null == nullptr) {
    for (size_t i = 0; i < count; ++i) {
      const uint32_t row = sel[i];
      if ((lhs_nulls != nullptr && lhs_nulls[row] != 0) ||
          (rhs_nulls != nullptr && rhs_nulls[row] != 0)) {
        continue;  // NULL comparison -> not TRUE -> drop.
      }
      if (cmp(lhs(row), rhs(row))) sel[out++] = row;
    }
  } else {
    for (size_t i = 0; i < count; ++i) {
      const uint32_t row = sel[i];
      if ((lhs_nulls != nullptr && lhs_nulls[row] != 0) ||
          (rhs_nulls != nullptr && rhs_nulls[row] != 0)) {
        // AND only short-circuits on FALSE: the row stays alive for the
        // expensive remainder, flagged so it can never reach the output.
        (*maybe_null)[row] = 1;
        sel[out++] = row;
        continue;
      }
      if (cmp(lhs(row), rhs(row))) sel[out++] = row;
    }
  }
  sel.resize(out);
}

/// Value::Compare's strict order: plain `<` for int64 and strings; for
/// doubles, NaN equals NaN and sorts above every other number; an int64
/// against a double compares exactly.
template <typename T>
bool Less(T a, T b) {
  return a < b;
}
bool Less(double a, double b) {
  return std::isnan(b) ? !std::isnan(a) : a < b;
}
bool Less(int64_t a, double b) {
  return types::CompareInt64Double(a, b) < 0;
}
bool Less(double a, int64_t b) {
  return types::CompareInt64Double(b, a) > 0;
}

/// Comparators written against that order only, so every operator agrees
/// with Value::Compare's three-way result, NaN included.
template <typename L, typename R>
void DispatchOp(expr::CompareOp op, std::vector<uint32_t>* selection, L lhs,
                R rhs, const uint8_t* lhs_nulls, const uint8_t* rhs_nulls,
                std::vector<uint8_t>* maybe_null) {
  switch (op) {
    case expr::CompareOp::kEq:
      Kernel(selection, lhs, rhs, lhs_nulls, rhs_nulls, maybe_null,
             [](auto a, auto b) { return !Less(a, b) && !Less(b, a); });
      break;
    case expr::CompareOp::kNe:
      Kernel(selection, lhs, rhs, lhs_nulls, rhs_nulls, maybe_null,
             [](auto a, auto b) { return Less(a, b) || Less(b, a); });
      break;
    case expr::CompareOp::kLt:
      Kernel(selection, lhs, rhs, lhs_nulls, rhs_nulls, maybe_null,
             [](auto a, auto b) { return Less(a, b); });
      break;
    case expr::CompareOp::kLe:
      Kernel(selection, lhs, rhs, lhs_nulls, rhs_nulls, maybe_null,
             [](auto a, auto b) { return !Less(b, a); });
      break;
    case expr::CompareOp::kGt:
      Kernel(selection, lhs, rhs, lhs_nulls, rhs_nulls, maybe_null,
             [](auto a, auto b) { return Less(b, a); });
      break;
    case expr::CompareOp::kGe:
      Kernel(selection, lhs, rhs, lhs_nulls, rhs_nulls, maybe_null,
             [](auto a, auto b) { return !Less(a, b); });
      break;
  }
}

bool IsNumericType(TypeId t) {
  return t == TypeId::kInt64 || t == TypeId::kDouble || t == TypeId::kBool;
}

}  // namespace

std::optional<VectorizedPredicate> VectorizedPredicate::Compile(
    const expr::ExprPtr& conjunct, const types::RowSchema& schema) {
  if (conjunct == nullptr || conjunct->kind != expr::ExprKind::kComparison ||
      conjunct->children.size() != 2) {
    return std::nullopt;
  }

  // Per-side compile: a non-NULL literal or a resolvable typed column.
  struct Side {
    Operand operand;
    TypeId type = TypeId::kNull;
  };
  const auto compile_side =
      [&schema](const expr::Expr& e) -> std::optional<Side> {
    Side side;
    if (e.kind == expr::ExprKind::kConstant) {
      if (e.constant.is_null()) return std::nullopt;
      side.operand.is_const = true;
      side.type = e.constant.type();
      switch (side.type) {
        case TypeId::kInt64:
          side.operand.i64 = e.constant.AsInt64();
          break;
        case TypeId::kDouble:
          side.operand.f64 = e.constant.AsDouble();
          break;
        case TypeId::kBool:
          side.operand.i64 = e.constant.AsBool() ? 1 : 0;
          break;
        case TypeId::kString:
          side.operand.str = e.constant.AsString();
          break;
        default:
          return std::nullopt;
      }
      return side;
    }
    if (e.kind == expr::ExprKind::kColumnRef) {
      const std::optional<size_t> index = schema.FindColumn(e.table, e.column);
      if (!index.has_value()) return std::nullopt;
      side.type = schema.Column(*index).type;
      if (side.type == TypeId::kNull) return std::nullopt;
      side.operand.column = *index;
      return side;
    }
    return std::nullopt;
  };

  const std::optional<Side> lhs = compile_side(*conjunct->children[0]);
  const std::optional<Side> rhs = compile_side(*conjunct->children[1]);
  if (!lhs.has_value() || !rhs.has_value()) return std::nullopt;
  // Constant-constant folds upstream; not worth a kernel.
  if (lhs->operand.is_const && rhs->operand.is_const) return std::nullopt;

  VectorizedPredicate out;
  out.op_ = conjunct->compare_op;
  out.lhs_ = lhs->operand;
  out.rhs_ = rhs->operand;
  if (lhs->type == TypeId::kString && rhs->type == TypeId::kString) {
    out.type_class_ = TypeClass::kString;
  } else if (IsNumericType(lhs->type) && IsNumericType(rhs->type)) {
    // Bool columns and constants are stored as int64 0/1.
    const bool lhs_double = lhs->type == TypeId::kDouble;
    const bool rhs_double = rhs->type == TypeId::kDouble;
    out.type_class_ =
        lhs_double ? (rhs_double ? TypeClass::kDouble
                                 : TypeClass::kDoubleInt64)
                   : (rhs_double ? TypeClass::kInt64Double
                                 : TypeClass::kInt64);
  } else {
    // Heterogeneous string-vs-number ordering (by type id) stays scalar.
    return std::nullopt;
  }
  return out;
}

bool VectorizedPredicate::Applicable(const types::ColumnBatch& batch) const {
  if (!lhs_.is_const && batch.column(lhs_.column).boxed) return false;
  if (!rhs_.is_const && batch.column(rhs_.column).boxed) return false;
  return true;
}

void VectorizedPredicate::Filter(types::ColumnBatch* batch,
                                 std::vector<uint8_t>* maybe_null) const {
  std::vector<uint32_t>* sel = batch->mutable_selection();
  const uint8_t* lhs_nulls =
      lhs_.is_const ? nullptr : batch->column(lhs_.column).nulls.data();
  const uint8_t* rhs_nulls =
      rhs_.is_const ? nullptr : batch->column(rhs_.column).nulls.data();

  const auto i64 = [&](const Operand& o) {
    NumAcc<int64_t> a;
    if (o.is_const) {
      a.constant = o.i64;
    } else {
      a.data = batch->column(o.column).i64.data();
    }
    return a;
  };
  const auto f64 = [&](const Operand& o) {
    NumAcc<double> a;
    if (o.is_const) {
      a.constant = o.f64;
    } else {
      a.data = batch->column(o.column).f64.data();
    }
    return a;
  };
  switch (type_class_) {
    case TypeClass::kInt64:
      DispatchOp(op_, sel, i64(lhs_), i64(rhs_), lhs_nulls, rhs_nulls,
                 maybe_null);
      break;
    case TypeClass::kDouble:
      DispatchOp(op_, sel, f64(lhs_), f64(rhs_), lhs_nulls, rhs_nulls,
                 maybe_null);
      break;
    case TypeClass::kInt64Double:
      DispatchOp(op_, sel, i64(lhs_), f64(rhs_), lhs_nulls, rhs_nulls,
                 maybe_null);
      break;
    case TypeClass::kDoubleInt64:
      DispatchOp(op_, sel, f64(lhs_), i64(rhs_), lhs_nulls, rhs_nulls,
                 maybe_null);
      break;
    case TypeClass::kString: {
      const auto acc = [&](const Operand& o) {
        StrAcc a;
        if (o.is_const) {
          a.constant = o.str;
        } else {
          a.col = &batch->column(o.column);
        }
        return a;
      };
      DispatchOp(op_, sel, acc(lhs_), acc(rhs_), lhs_nulls, rhs_nulls,
                 maybe_null);
      break;
    }
  }
}

}  // namespace ppp::exec

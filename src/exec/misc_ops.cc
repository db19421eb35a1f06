#include "exec/misc_ops.h"

#include <map>

namespace ppp::exec {

namespace {

/// Replays rows an operator buffered on Open, from *pos onwards.
common::Status EmitBuffered(const std::vector<types::Tuple>& rows,
                            size_t max_rows, size_t* pos, TupleBatch* batch,
                            bool* eof) {
  while (batch->size() < max_rows && *pos < rows.size()) {
    batch->tuples.push_back(rows[(*pos)++]);
  }
  *eof = *pos >= rows.size();
  return common::Status::OK();
}

}  // namespace

SortOp::SortOp(std::unique_ptr<Operator> child, size_t key_index,
               bool vectorized)
    : child_(std::move(child)), key_(key_index), vectorized_(vectorized) {
  schema_ = child_->schema();
}

common::Status SortOp::OpenImpl() {
  pos_ = 0;
  PPP_RETURN_IF_ERROR(input_.Fill(child_.get(), batch_size_, vectorized_));
  sorted_.Build(input_, key_, /*drop_nulls=*/false);
  return common::Status::OK();
}

common::Status SortOp::NextBatchImpl(size_t max_rows, TupleBatch* batch,
                                     bool* eof) {
  while (batch->size() < max_rows && pos_ < sorted_.size()) {
    batch->tuples.push_back(input_.RowAsTuple(sorted_.row(pos_++)));
  }
  *eof = pos_ >= sorted_.size();
  return common::Status::OK();
}

MaterializeOp::MaterializeOp(std::unique_ptr<Operator> child)
    : child_(std::move(child)) {
  schema_ = child_->schema();
}

common::Status MaterializeOp::OpenImpl() {
  pos_ = 0;
  if (filled_) return common::Status::OK();
  PPP_RETURN_IF_ERROR(Drain(child_.get(), batch_size_, &rows_));
  filled_ = true;
  return common::Status::OK();
}

common::Status MaterializeOp::NextBatchImpl(size_t max_rows,
                                            TupleBatch* batch, bool* eof) {
  return EmitBuffered(rows_, max_rows, &pos_, batch, eof);
}

HashAggregateOp::HashAggregateOp(std::unique_ptr<Operator> child,
                                 std::vector<size_t> key_indexes,
                                 std::vector<BoundAggregate> aggregates,
                                 types::RowSchema output_schema,
                                 ExecContext* ctx)
    : child_(std::move(child)),
      key_indexes_(std::move(key_indexes)),
      aggregates_(std::move(aggregates)),
      ctx_(ctx) {
  schema_ = std::move(output_schema);
}

common::Status HashAggregateOp::OpenImpl() {
  results_.clear();
  pos_ = 0;
  PPP_RETURN_IF_ERROR(child_->Open());

  // key (serialized group values) -> (group values, accumulators).
  std::map<std::string,
           std::pair<std::vector<types::Value>, std::vector<Accumulator>>>
      groups;

  TupleBatch batch;
  bool eof = false;
  bool saw_row = false;
  while (!eof) {
    batch.clear();
    PPP_RETURN_IF_ERROR(child_->NextBatch(batch_size_, &batch, &eof));
    for (const types::Tuple& tuple : batch.tuples) {
      saw_row = true;
      std::vector<types::Value> key_values;
      key_values.reserve(key_indexes_.size());
      for (const size_t i : key_indexes_) {
        key_values.push_back(tuple.Get(i));
      }
      const std::string key = types::Tuple(key_values).Serialize();
      auto [it, inserted] = groups.try_emplace(key);
      if (inserted) {
        it->second.first = std::move(key_values);
        it->second.second.resize(aggregates_.size());
      }
      for (size_t a = 0; a < aggregates_.size(); ++a) {
        Accumulator& acc = it->second.second[a];
        const BoundAggregate& agg = aggregates_[a];
        types::Value v;
        if (agg.arg != nullptr) {
          v = agg.arg->Eval(tuple, &ctx_->eval);
          if (v.is_null()) continue;  // SQL: NULLs are ignored.
        }
        ++acc.count;
        if (agg.arg != nullptr) {
          if (v.type() == types::TypeId::kInt64 ||
              v.type() == types::TypeId::kDouble) {
            acc.sum += v.AsNumeric();
          }
          if (!acc.has_value || v.Compare(acc.min) < 0) acc.min = v;
          if (!acc.has_value || v.Compare(acc.max) > 0) acc.max = v;
          acc.has_value = true;
        }
      }
    }
  }

  // A global aggregate over an empty input still emits one row.
  if (groups.empty() && key_indexes_.empty() && !saw_row) {
    groups.try_emplace("", std::make_pair(std::vector<types::Value>{},
                                          std::vector<Accumulator>(
                                              aggregates_.size())));
  }

  for (auto& [key, group] : groups) {
    std::vector<types::Value> row = std::move(group.first);
    for (size_t a = 0; a < aggregates_.size(); ++a) {
      const Accumulator& acc = group.second[a];
      switch (aggregates_[a].op) {
        case plan::AggregateItem::Op::kCount:
          row.emplace_back(static_cast<int64_t>(acc.count));
          break;
        case plan::AggregateItem::Op::kSum:
          row.push_back(acc.count > 0 ? types::Value(acc.sum)
                                      : types::Value());
          break;
        case plan::AggregateItem::Op::kAvg:
          row.push_back(acc.count > 0
                            ? types::Value(acc.sum /
                                           static_cast<double>(acc.count))
                            : types::Value());
          break;
        case plan::AggregateItem::Op::kMin:
          row.push_back(acc.has_value ? acc.min : types::Value());
          break;
        case plan::AggregateItem::Op::kMax:
          row.push_back(acc.has_value ? acc.max : types::Value());
          break;
      }
    }
    results_.emplace_back(std::move(row));
  }
  return common::Status::OK();
}

common::Status HashAggregateOp::NextBatchImpl(size_t max_rows,
                                              TupleBatch* batch, bool* eof) {
  return EmitBuffered(results_, max_rows, &pos_, batch, eof);
}

ProjectOp::ProjectOp(std::unique_ptr<Operator> child,
                     std::vector<std::shared_ptr<expr::BoundExpr>> exprs,
                     types::RowSchema output_schema, ExecContext* ctx)
    : child_(std::move(child)), exprs_(std::move(exprs)), ctx_(ctx) {
  schema_ = std::move(output_schema);
}

common::Status ProjectOp::OpenImpl() { return child_->Open(); }

common::Status ProjectOp::NextBatchImpl(size_t max_rows, TupleBatch* batch,
                                        bool* eof) {
  TupleBatch input;
  PPP_RETURN_IF_ERROR(child_->NextBatch(max_rows, &input, eof));
  for (const types::Tuple& tuple : input.tuples) {
    std::vector<types::Value> values;
    values.reserve(exprs_.size());
    for (const std::shared_ptr<expr::BoundExpr>& e : exprs_) {
      values.push_back(e->Eval(tuple, &ctx_->eval));
    }
    batch->tuples.emplace_back(std::move(values));
  }
  return common::Status::OK();
}

std::string SortOp::Describe() const { return "Sort"; }
std::string MaterializeOp::Describe() const { return "Materialize"; }
std::string HashAggregateOp::Describe() const { return "Aggregate"; }
std::string ProjectOp::Describe() const { return "Project"; }

}  // namespace ppp::exec

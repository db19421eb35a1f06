#ifndef PPP_EXEC_MISC_OPS_H_
#define PPP_EXEC_MISC_OPS_H_

#include <memory>
#include <vector>

#include "exec/column_buffer.h"
#include "exec/operator.h"
#include "plan/plan_node.h"

namespace ppp::exec {

/// In-memory sort on one column, ascending, NULLs first, stable. The
/// input is drained on Open into column batches and only its row positions
/// are sorted; each row is built when it is emitted.
class SortOp : public Operator {
 public:
  /// `vectorized` (ExecParams::vectorized) picks how the input is drained:
  /// column batches, or row batches transposed (ColumnBuffer).
  SortOp(std::unique_ptr<Operator> child, size_t key_index, bool vectorized);

  std::string Describe() const override;
  std::vector<Operator*> Children() override { return {child_.get()}; }

 protected:
  common::Status OpenImpl() override;
  common::Status NextBatchImpl(size_t max_rows, TupleBatch* batch,
                               bool* eof) override;

 private:
  std::unique_ptr<Operator> child_;
  size_t key_;
  bool vectorized_;
  ColumnBuffer input_;
  SortedRun sorted_;
  size_t pos_ = 0;
};

/// Buffers the child's output on first Open; later Opens replay from
/// memory without re-executing the child.
class MaterializeOp : public Operator {
 public:
  explicit MaterializeOp(std::unique_ptr<Operator> child);

  std::string Describe() const override;
  std::vector<Operator*> Children() override { return {child_.get()}; }

 protected:
  common::Status OpenImpl() override;
  common::Status NextBatchImpl(size_t max_rows, TupleBatch* batch,
                               bool* eof) override;

 private:
  std::unique_ptr<Operator> child_;
  std::vector<types::Tuple> rows_;
  bool filled_ = false;
  size_t pos_ = 0;
};

/// Hash aggregation: groups the child's rows on a list of key columns
/// (empty = one global group) and computes count/sum/avg/min/max. Output
/// is sorted by group key for determinism.
class HashAggregateOp : public Operator {
 public:
  struct BoundAggregate {
    plan::AggregateItem::Op op;
    std::shared_ptr<expr::BoundExpr> arg;  // Null for COUNT(*).
  };

  HashAggregateOp(std::unique_ptr<Operator> child,
                  std::vector<size_t> key_indexes,
                  std::vector<BoundAggregate> aggregates,
                  types::RowSchema output_schema, ExecContext* ctx);

  std::string Describe() const override;
  std::vector<Operator*> Children() override { return {child_.get()}; }

 protected:
  common::Status OpenImpl() override;
  common::Status NextBatchImpl(size_t max_rows, TupleBatch* batch,
                               bool* eof) override;

 private:
  struct Accumulator {
    uint64_t count = 0;
    double sum = 0;
    types::Value min;
    types::Value max;
    bool has_value = false;
  };

  std::unique_ptr<Operator> child_;
  std::vector<size_t> key_indexes_;
  std::vector<BoundAggregate> aggregates_;
  ExecContext* ctx_;
  std::vector<types::Tuple> results_;
  size_t pos_ = 0;
};

/// Evaluates a projection list per input tuple.
class ProjectOp : public Operator {
 public:
  ProjectOp(std::unique_ptr<Operator> child,
            std::vector<std::shared_ptr<expr::BoundExpr>> exprs,
            types::RowSchema output_schema, ExecContext* ctx);

  std::string Describe() const override;
  std::vector<Operator*> Children() override { return {child_.get()}; }

 protected:
  common::Status OpenImpl() override;
  common::Status NextBatchImpl(size_t max_rows, TupleBatch* batch,
                               bool* eof) override;

 private:
  std::unique_ptr<Operator> child_;
  std::vector<std::shared_ptr<expr::BoundExpr>> exprs_;
  ExecContext* ctx_;
};

}  // namespace ppp::exec

#endif  // PPP_EXEC_MISC_OPS_H_

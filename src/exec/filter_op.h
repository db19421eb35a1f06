#ifndef PPP_EXEC_FILTER_OP_H_
#define PPP_EXEC_FILTER_OP_H_

#include <memory>
#include <optional>
#include <vector>

#include "exec/operator.h"
#include "exec/parallel_eval.h"
#include "exec/vector_filter.h"
#include "expr/predicate.h"

namespace ppp::exec {

/// Applies one predicate, with the §5.1 predicate cache when enabled. The
/// cache belongs to the operator instance and survives Open() — a
/// nested-loop rescan re-runs the filter but pays no repeated function
/// invocations for bindings already seen.
///
/// Under ExecParams::vectorized the conjunction is split at build time:
/// its maximal *prefix* of cheap vectorizable comparisons compiles to
/// VectorizedPredicate kernels that narrow the child ColumnBatch's
/// selection vector in tight typed loops, and the expensive remainder (the
/// suffix, with every UDF) evaluates late — scalar or fanned across the
/// context's worker pool (ParallelPredicateEvaluator) — against only the
/// surviving positions. Splitting only the prefix, and keeping rows whose
/// cheap part evaluated NULL alive (flagged) for the suffix, preserves the
/// scalar engine's exact UDF invocation counts: SQL AND short-circuits on
/// FALSE only. Predicates whose whole-conjunct memo is engaged are never
/// split (the split would change cache keys and hit patterns), and a batch
/// whose referenced columns fell back to boxed storage evaluates scalar.
///
/// Everything else — non-vectorizable predicates, vectorized off, row-only
/// children — keeps the row-oriented batch path, which evaluates the
/// predicate row by row in stream order.
class FilterOp : public Operator {
 public:
  /// Binds `pred` against the child's schema and compiles the vectorized
  /// split when ctx->params.vectorized allows it.
  static common::Result<std::unique_ptr<FilterOp>> Make(
      std::unique_ptr<Operator> child, const expr::PredicateInfo& pred,
      ExecContext* ctx);

  /// Row-only construction (no vectorization), for callers that already
  /// hold a bound predicate.
  FilterOp(std::unique_ptr<Operator> child, CachedPredicate predicate,
           ExecContext* ctx);

  const CachedPredicate& predicate() const { return predicate_; }

  /// Whether the batch path fans this filter out across workers.
  bool parallel() const { return parallel_; }

  /// Number of cheap conjuncts compiled to vectorized kernels.
  size_t vectorized_conjuncts() const { return kernels_.size(); }

  std::string Describe() const override;
  std::vector<Operator*> Children() override { return {child_.get()}; }
  bool provides_columns() const override { return use_columns_; }

 protected:
  common::Status OpenImpl() override;
  common::Status NextBatchImpl(size_t max_rows, TupleBatch* batch,
                               bool* eof) override;
  common::Status NextColumnBatchImpl(size_t max_rows,
                                     types::ColumnBatch* batch,
                                     bool* eof) override;
  void RefreshLocalStats() const override;

 private:
  /// Narrows `batch`'s selection to the predicate's survivors (kernels +
  /// late expensive pass, or full scalar fallback).
  common::Status FilterColumns(types::ColumnBatch* batch);
  /// Evaluates `pred` over the selected rows (parallel when configured),
  /// leaving only passing rows selected; rows flagged in `maybe_null`
  /// (when non-null) are evaluated but always dropped from the output.
  /// The serial pass probes the cache from the batch's columns, so a hit
  /// builds no row; the parallel pass hands its workers row tuples.
  void EvalScalarOnSelection(CachedPredicate* pred, types::ColumnBatch* batch,
                             const std::vector<uint8_t>* maybe_null);

  std::unique_ptr<Operator> child_;
  CachedPredicate predicate_;
  ExecContext* ctx_;
  bool parallel_ = false;
  std::unique_ptr<ParallelPredicateEvaluator> evaluator_;

  /// Vectorized split (empty kernels_ = fully scalar).
  std::vector<VectorizedPredicate> kernels_;
  /// Expensive remainder; nullopt when the whole conjunction vectorized.
  std::optional<CachedPredicate> suffix_;
  /// True when the batch path pulls columns from the child.
  bool use_columns_ = false;

  /// Scratch, reused across batches.
  std::vector<uint8_t> maybe_null_;
  TupleBatch survivors_;
  std::vector<char> keep_;
  types::ColumnBatch column_scratch_;
};

}  // namespace ppp::exec

#endif  // PPP_EXEC_FILTER_OP_H_

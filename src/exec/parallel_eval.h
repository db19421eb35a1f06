#ifndef PPP_EXEC_PARALLEL_EVAL_H_
#define PPP_EXEC_PARALLEL_EVAL_H_

#include <cstddef>
#include <vector>

#include "common/thread_pool.h"
#include "exec/operator.h"

namespace ppp::exec {

/// Fans one batch of an expensive-predicate filter across a worker pool.
///
/// Correctness contract (the paper measures plans by exact invocation
/// counts, so parallelism must not change them):
///  - Each worker evaluates a contiguous slice of the batch with its own
///    EvalContext; invocation tallies are merged into the coordinator's
///    context after the join, in slice order, so totals are exact and
///    deterministic.
///  - The predicate/function caches are sharded and thread-safe, and a key
///    being computed by one worker blocks concurrent probers instead of
///    recomputing — each distinct binding is evaluated at most once, the
///    same as serial execution (unbounded caches; bounded caches may evict
///    in a run-dependent order).
///  - Only predicates whose functions are all parallel_safe are fanned out
///    (FilterOp gates on CachedPredicate::parallel_safe()).
///  - UDF calls a pool thread makes are credited to the coordinator's
///    expr::ThreadUdfCalls() after the join, so the enclosing operators'
///    inclusive figures match a serial run.
///
/// The speedup on expensive predicates comes from overlapping their
/// latency: the paper charges them in random-I/O units, i.e. they model
/// waiting on I/O, so concurrent workers make progress even on one core.
class ParallelPredicateEvaluator {
 public:
  /// `pool` supplies workers; the coordinator participates too, so the
  /// effective parallelism is pool->num_threads() + 1.
  explicit ParallelPredicateEvaluator(common::ThreadPool* pool);

  /// Evaluates `pred` on every tuple of `batch`, writing pass/fail into
  /// `keep` (resized to batch.size()). Invocation counts land in
  /// ctx->eval.invocation_counts exactly as a serial evaluation would.
  void EvalBatch(CachedPredicate* pred, const TupleBatch& batch,
                 ExecContext* ctx, std::vector<char>* keep);

 private:
  common::ThreadPool* pool_;
};

}  // namespace ppp::exec

#endif  // PPP_EXEC_PARALLEL_EVAL_H_

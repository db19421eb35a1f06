#ifndef PPP_EXPR_EVALUATOR_H_
#define PPP_EXPR_EVALUATOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/function_registry.h"
#include "common/sharded_memo.h"
#include "common/status.h"
#include "expr/expr.h"
#include "types/row_schema.h"
#include "types/tuple.h"

namespace ppp::expr {

/// Per-function memo table: the [Jhi88] alternative to whole-predicate
/// caching that §5.1 contrasts with Montage's design. Keyed on
/// (function, serialized arguments); FIFO eviction when bounded. Backed by
/// a sharded, thread-safe memo so the batch executor's workers can share
/// one cache, with the same adaptive self-disable as the predicate cache.
class FunctionCache {
 public:
  struct Options {
    size_t max_entries = 0;  // 0 = unbounded.
    size_t shards = 1;
    bool adaptive = false;
    uint64_t probe_window = 512;

    bool operator==(const Options&) const = default;
  };

  FunctionCache();

  /// Applies `options`; drops existing entries only when they changed, so
  /// repeated executions under the same configuration keep their memo.
  void Configure(const Options& options);

  /// Returns the memoized result, running `compute` at most once per
  /// distinct key (concurrent probers of an in-flight key wait).
  types::Value GetOrCompute(const std::string& key,
                            const std::function<types::Value()>& compute) {
    return memo_.GetOrCompute(key, compute);
  }

  /// True once the adaptive policy disabled this cache (zero hits in the
  /// first probe_window probes); callers then invoke functions directly.
  bool disabled() const { return memo_.disabled(); }

  size_t entries() const { return memo_.entries(); }
  uint64_t hits() const { return memo_.hits(); }
  uint64_t evictions() const { return memo_.evictions(); }

 private:
  Options options_;
  common::ShardedMemo<types::Value> memo_;
};

/// Mutable per-query evaluation state: the UDF invocation counters that the
/// measurement harness converts into charged time (paper §2), plus the
/// optional function-level cache. Owned by the executor; shared by every
/// operator of one plan execution.
struct EvalContext {
  /// function name -> number of invocations so far.
  std::unordered_map<std::string, uint64_t> invocation_counts;

  /// Non-null enables function-result caching during evaluation.
  FunctionCache* function_cache = nullptr;

  uint64_t InvocationsOf(const std::string& function) const {
    auto it = invocation_counts.find(function);
    return it == invocation_counts.end() ? 0 : it->second;
  }
};

/// UDF invocations the calling thread made, counted next to the global
/// expr.udf.invocations counter. An execution's calls are the delta of
/// this across its own calls, so concurrent sessions never leak into it.
inline uint64_t& ThreadUdfCalls() {
  thread_local uint64_t calls = 0;
  return calls;
}

/// An expression compiled against a RowSchema: column references are
/// resolved to tuple indexes and function names to FunctionDef pointers, so
/// evaluation does no lookups.
class BoundExpr {
 public:
  /// Compiles `expr` against `schema`. Fails if a column cannot be resolved
  /// (or is ambiguous) or a function is not registered.
  static common::Result<std::unique_ptr<BoundExpr>> Bind(
      const ExprPtr& expr, const types::RowSchema& schema,
      const catalog::FunctionRegistry& functions);

  /// Evaluates on one tuple. UDF invocations are tallied into `ctx`.
  types::Value Eval(const types::Tuple& tuple, EvalContext* ctx) const;

  /// Eval specialized for predicates: NULL and non-true map to false.
  bool EvalBool(const types::Tuple& tuple, EvalContext* ctx) const;

  const Expr& expr() const { return *expr_; }

  /// Tuple indexes of all column references in the tree, in depth-first
  /// order (used as the predicate-cache key projection).
  const std::vector<size_t>& column_indexes() const {
    return column_indexes_;
  }

 private:
  BoundExpr() = default;

  ExprPtr expr_;
  // Parallel compiled node data, indexed by depth-first position.
  size_t column_index_ = 0;                        // kColumnRef.
  const catalog::FunctionDef* function_ = nullptr;  // kFunctionCall.
  std::vector<std::unique_ptr<BoundExpr>> children_;
  std::vector<size_t> column_indexes_;
};

}  // namespace ppp::expr

#endif  // PPP_EXPR_EVALUATOR_H_

#include "expr/evaluator.h"

#include <chrono>
#include <optional>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/span.h"

namespace ppp::expr {

FunctionCache::FunctionCache()
    : hits_counter_(obs::MetricsRegistry::Global().GetCounter(
          "expr.function_cache.hits")),
      misses_counter_(obs::MetricsRegistry::Global().GetCounter(
          "expr.function_cache.misses")) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  common::ShardedMemo<types::Value>::Listener listener;
  listener.on_eviction = [counter = registry.GetCounter(
                              "expr.function_cache.evictions")] {
    counter->Increment();
  };
  listener.on_disable = [counter = registry.GetCounter(
                             "expr.function_cache.disables")] {
    counter->Increment();
  };
  listener.on_contention = [counter = registry.GetCounter(
                                "expr.function_cache.shard_contention")] {
    counter->Increment();
  };
  memo_.set_listener(std::move(listener));
}

types::Value FunctionCache::GetOrCompute(
    const std::string& key, const std::function<types::Value()>& compute) {
  common::ShardedMemo<types::Value>::Outcome outcome;
  types::Value value = memo_.GetOrCompute(key, compute, &outcome);
  (outcome.hit ? hits_counter_ : misses_counter_)->Increment();
  return value;
}

void FunctionCache::Configure(const Options& options) {
  if (options == options_) return;
  options_ = options;
  common::ShardedMemo<types::Value>::Options memo;
  memo.max_entries = options.max_entries;
  memo.shards = options.shards == 0 ? 1 : options.shards;
  memo.adaptive = options.adaptive;
  memo.probe_window = options.probe_window;
  memo_.Reset(memo);
}

common::Result<std::unique_ptr<BoundExpr>> BoundExpr::Bind(
    const ExprPtr& expr, const types::RowSchema& schema,
    const catalog::FunctionRegistry& functions) {
  if (expr == nullptr) {
    return common::Status::InvalidArgument("cannot bind null expression");
  }
  auto bound = std::unique_ptr<BoundExpr>(new BoundExpr());
  bound->expr_ = expr;

  if (expr->kind == ExprKind::kColumnRef) {
    const std::optional<size_t> index =
        schema.FindColumn(expr->table, expr->column);
    if (!index.has_value()) {
      return common::Status::NotFound(
          "column " + expr->ToString() + " not found (or ambiguous) in [" +
          schema.ToString() + "]");
    }
    bound->column_index_ = *index;
    bound->column_indexes_.push_back(*index);
    return bound;
  }

  if (expr->kind == ExprKind::kInSubquery) {
    return common::Status::InvalidArgument(
        "IN-subquery must be rewritten into a predicate function before "
        "execution (see subquery::RewriteSubqueries): " + expr->ToString());
  }
  if (expr->kind == ExprKind::kFunctionCall) {
    PPP_ASSIGN_OR_RETURN(bound->function_,
                         functions.Lookup(expr->function_name));
  }

  for (const ExprPtr& child : expr->children) {
    PPP_ASSIGN_OR_RETURN(std::unique_ptr<BoundExpr> bound_child,
                         Bind(child, schema, functions));
    bound->column_indexes_.insert(bound->column_indexes_.end(),
                                  bound_child->column_indexes_.begin(),
                                  bound_child->column_indexes_.end());
    bound->children_.push_back(std::move(bound_child));
  }
  return bound;
}

types::Value BoundExpr::Eval(const types::Tuple& tuple,
                             EvalContext* ctx) const {
  switch (expr_->kind) {
    case ExprKind::kColumnRef:
      return tuple.Get(column_index_);
    case ExprKind::kConstant:
      return expr_->constant;
    case ExprKind::kComparison: {
      const types::Value left = children_[0]->Eval(tuple, ctx);
      const types::Value right = children_[1]->Eval(tuple, ctx);
      if (left.is_null() || right.is_null()) return types::Value::Null();
      const int c = left.Compare(right);
      switch (expr_->compare_op) {
        case CompareOp::kEq:
          return types::Value(c == 0);
        case CompareOp::kNe:
          return types::Value(c != 0);
        case CompareOp::kLt:
          return types::Value(c < 0);
        case CompareOp::kLe:
          return types::Value(c <= 0);
        case CompareOp::kGt:
          return types::Value(c > 0);
        case CompareOp::kGe:
          return types::Value(c >= 0);
      }
      return types::Value::Null();
    }
    case ExprKind::kArithmetic: {
      const types::Value left = children_[0]->Eval(tuple, ctx);
      const types::Value right = children_[1]->Eval(tuple, ctx);
      if (left.is_null() || right.is_null()) return types::Value::Null();
      // Integer arithmetic stays integral; anything else goes to double.
      if (left.type() == types::TypeId::kInt64 &&
          right.type() == types::TypeId::kInt64 &&
          expr_->arith_op != ArithOp::kDiv) {
        const int64_t a = left.AsInt64();
        const int64_t b = right.AsInt64();
        switch (expr_->arith_op) {
          case ArithOp::kAdd:
            return types::Value(a + b);
          case ArithOp::kSub:
            return types::Value(a - b);
          case ArithOp::kMul:
            return types::Value(a * b);
          case ArithOp::kDiv:
            break;
        }
      }
      const double a = left.AsNumeric();
      const double b = right.AsNumeric();
      switch (expr_->arith_op) {
        case ArithOp::kAdd:
          return types::Value(a + b);
        case ArithOp::kSub:
          return types::Value(a - b);
        case ArithOp::kMul:
          return types::Value(a * b);
        case ArithOp::kDiv:
          if (b == 0) return types::Value::Null();
          return types::Value(a / b);
      }
      return types::Value::Null();
    }
    case ExprKind::kFunctionCall: {
      std::vector<types::Value> args;
      args.reserve(children_.size());
      for (const std::unique_ptr<BoundExpr>& child : children_) {
        args.push_back(child->Eval(tuple, ctx));
      }
      // Per-function memoization ([Jhi88] / §5.1 alternative): key on the
      // function name plus serialized argument values. The invocation tally
      // happens inside the memo's compute callback, so under the batch
      // executor each actual invocation lands in exactly one worker's
      // per-worker EvalContext and merged totals stay exact.
      static obs::Counter* invocation_counter =
          obs::MetricsRegistry::Global().GetCounter("expr.udf.invocations");
      auto invoke = [&]() -> types::Value {
        if (ctx != nullptr) {
          ++ctx->invocation_counts[function_->name];
        }
        invocation_counter->Increment();
        ++ThreadUdfCalls();
        obs::PredicateProfiler& profiler = obs::PredicateProfiler::Global();
        const bool spans_on = obs::SpanTracer::Global().enabled() &&
                              function_->cost_per_call > 0;
        if (!profiler.enabled() && !spans_on) return function_->impl(args);
        // Per-invocation span only for declared-expensive functions (cheap
        // comparators would swamp the trace); the profiler sees every call.
        std::optional<obs::Span> span;
        if (spans_on) span.emplace("udf", function_->name);
        const auto start = std::chrono::steady_clock::now();
        types::Value result = function_->impl(args);
        const double seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count();
        if (profiler.enabled()) {
          // Distinct-input selectivity per §5.1: keyed on the serialized
          // argument tuple, the same identity the predicate cache uses.
          std::optional<bool> passed;
          std::string input_key;
          if (function_->return_type == types::TypeId::kBool) {
            passed = !result.is_null() && result.AsBool();
            input_key = types::Tuple(args).Serialize();
          }
          profiler.Record(function_->name, seconds, input_key, passed);
        }
        return result;
      };
      FunctionCache* cache =
          (ctx != nullptr && function_->cacheable) ? ctx->function_cache
                                                   : nullptr;
      if (cache == nullptr || cache->disabled()) {
        return invoke();
      }
      const std::string key =
          function_->name + "\x1f" + types::Tuple(args).Serialize();
      return cache->GetOrCompute(key, invoke);
    }
    case ExprKind::kAnd: {
      // SQL three-valued logic: false dominates NULL.
      const types::Value left = children_[0]->Eval(tuple, ctx);
      if (!left.is_null() && !left.AsBool()) return types::Value(false);
      const types::Value right = children_[1]->Eval(tuple, ctx);
      if (!right.is_null() && !right.AsBool()) return types::Value(false);
      if (left.is_null() || right.is_null()) return types::Value::Null();
      return types::Value(true);
    }
    case ExprKind::kOr: {
      const types::Value left = children_[0]->Eval(tuple, ctx);
      if (!left.is_null() && left.AsBool()) return types::Value(true);
      const types::Value right = children_[1]->Eval(tuple, ctx);
      if (!right.is_null() && right.AsBool()) return types::Value(true);
      if (left.is_null() || right.is_null()) return types::Value::Null();
      return types::Value(false);
    }
    case ExprKind::kNot: {
      const types::Value v = children_[0]->Eval(tuple, ctx);
      if (v.is_null()) return types::Value::Null();
      return types::Value(!v.AsBool());
    }
    case ExprKind::kInSubquery:
      // Unreachable: Bind rejects unrewritten subqueries.
      return types::Value::Null();
  }
  return types::Value::Null();
}

bool BoundExpr::EvalBool(const types::Tuple& tuple, EvalContext* ctx) const {
  const types::Value v = Eval(tuple, ctx);
  if (v.is_null()) return false;
  if (v.type() == types::TypeId::kBool) return v.AsBool();
  // Non-boolean predicate results (e.g. a bare int) follow C semantics.
  return v.AsNumeric() != 0;
}

}  // namespace ppp::expr

#include "exec/parallel_eval.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <thread>

#include "obs/metrics.h"
#include "obs/span.h"

namespace ppp::exec {

ParallelPredicateEvaluator::ParallelPredicateEvaluator(
    common::ThreadPool* pool)
    : pool_(pool) {}

void ParallelPredicateEvaluator::EvalBatch(CachedPredicate* pred,
                                           const TupleBatch& batch,
                                           ExecContext* ctx,
                                           std::vector<char>* keep) {
  static obs::Counter* batch_counter =
      obs::MetricsRegistry::Global().GetCounter("exec.parallel.batches");
  static obs::Histogram* utilization_histogram =
      obs::MetricsRegistry::Global().GetHistogram(
          "exec.parallel.worker_utilization");

  keep->assign(batch.size(), 0);
  if (batch.empty()) return;

  const size_t workers =
      std::min(batch.size(),
               pool_ != nullptr ? pool_->num_threads() + 1 : size_t{1});
  const size_t slice = (batch.size() + workers - 1) / workers;

  // One contiguous slice and one private EvalContext per worker. Workers
  // share the (thread-safe) function cache; everything else they touch —
  // the bound expression, the sharded predicate cache, pure UDF impls — is
  // immutable or internally synchronized.
  std::vector<expr::EvalContext> worker_ctx(workers);
  std::vector<double> busy_seconds(workers, 0.0);
  std::vector<uint64_t> pool_thread_calls(workers, 0);
  for (expr::EvalContext& wc : worker_ctx) {
    wc.function_cache = ctx->eval.function_cache;
  }

  const auto wall_start = std::chrono::steady_clock::now();
  // Query/session attribution is thread-local, so pool workers must
  // inherit the coordinator's ids explicitly.
  const uint64_t query_id = obs::SpanTracer::current_query_id();
  const uint64_t session_id = obs::SpanTracer::current_session_id();
  const std::thread::id coordinator = std::this_thread::get_id();
  const auto eval_slice = [&](size_t w) {
    obs::QueryIdScope id_scope(query_id, session_id);
    // The span is created on the executing thread, so its tid is the
    // worker's track in the exported trace (or the coordinator's — the
    // caller participates in the pool's Run).
    std::optional<obs::Span> span;
    if (obs::SpanTracer::Global().enabled()) {
      span.emplace("exec.parallel", "worker");
      span->AddArg("slice", std::to_string(w));
    }
    const auto start = std::chrono::steady_clock::now();
    const uint64_t calls_before = expr::ThreadUdfCalls();
    const size_t begin = w * slice;
    const size_t end = std::min(batch.size(), begin + slice);
    for (size_t i = begin; i < end; ++i) {
      (*keep)[i] = pred->Eval(batch.tuples[i], &worker_ctx[w]) ? 1 : 0;
    }
    if (std::this_thread::get_id() != coordinator) {
      pool_thread_calls[w] = expr::ThreadUdfCalls() - calls_before;
    }
    busy_seconds[w] =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
  };
  if (pool_ != nullptr) {
    pool_->Run(workers, eval_slice);
  } else {
    for (size_t w = 0; w < workers; ++w) eval_slice(w);
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  // Merge in slice order: sums are order-independent, so totals match a
  // serial evaluation exactly. Slices run on pool threads counted their
  // calls there; credit them to the coordinator's thread, whose enclosing
  // operators attribute UDF work by its ThreadUdfCalls() delta.
  for (size_t w = 0; w < workers; ++w) {
    for (const auto& [name, count] : worker_ctx[w].invocation_counts) {
      ctx->eval.invocation_counts[name] += count;
    }
    expr::ThreadUdfCalls() += pool_thread_calls[w];
  }

  batch_counter->Increment();
  if (wall > 0.0) {
    double busy = 0.0;
    for (const double b : busy_seconds) busy += b;
    utilization_histogram->Observe(busy /
                                   (wall * static_cast<double>(workers)));
  }
}

}  // namespace ppp::exec

#include "exec/operator.h"

#include <chrono>
#include <optional>

#include "exec/shared_caches.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace ppp::exec {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

template <typename Body>
common::Status Operator::Instrumented(const char* phase, double* seconds,
                                      const Body& body) {
  std::optional<obs::Span> span;
  if (obs::SpanTracer::Global().enabled()) {
    span.emplace("exec", phase + Describe());
  }
  const storage::IoStats io_before = storage::ThreadIo();
  const uint64_t udf_before = expr::ThreadUdfCalls();
  const auto start = std::chrono::steady_clock::now();
  common::Status status = body(span.has_value() ? &*span : nullptr);
  *seconds += SecondsSince(start);
  stats_.udf_invocations += expr::ThreadUdfCalls() - udf_before;
  stats_.io += storage::ThreadIo() - io_before;
  return status;
}

common::Status Operator::Open() {
  ++stats_.opens;
  return Instrumented("open:", &stats_.open_seconds,
                      [this](obs::Span*) { return OpenImpl(); });
}

common::Status Operator::NextBatch(size_t max_rows, TupleBatch* batch,
                                   bool* eof) {
  static obs::Counter* batch_counter =
      obs::MetricsRegistry::Global().GetCounter("exec.batches");
  static obs::Histogram* fill_histogram =
      obs::MetricsRegistry::Global().GetHistogram("exec.batch.fill");
  if (max_rows == 0) max_rows = 1;
  ++stats_.batches;
  const size_t rows_before = batch->size();
  return Instrumented(
      "batch:", &stats_.next_seconds, [&](obs::Span* span) {
        PPP_RETURN_IF_ERROR(NextBatchImpl(max_rows, batch, eof));
        const size_t produced = batch->size() - rows_before;
        stats_.rows_out += produced;
        if (span != nullptr) span->AddArg("rows", std::to_string(produced));
        batch_counter->Increment();
        fill_histogram->Observe(static_cast<double>(produced) /
                                static_cast<double>(max_rows));
        return common::Status::OK();
      });
}

common::Status Operator::NextColumnBatch(size_t max_rows,
                                         types::ColumnBatch* batch,
                                         bool* eof) {
  static obs::Counter* vbatch_counter =
      obs::MetricsRegistry::Global().GetCounter("exec.vector.batches");
  static obs::Counter* vrows_counter =
      obs::MetricsRegistry::Global().GetCounter("exec.vector.rows");
  static obs::Histogram* density_histogram =
      obs::MetricsRegistry::Global().GetHistogram(
          "exec.vector.selection_density");
  if (max_rows == 0) max_rows = 1;
  ++stats_.batches;
  return Instrumented(
      "vbatch:", &stats_.next_seconds, [&](obs::Span* span) {
        PPP_RETURN_IF_ERROR(NextColumnBatchImpl(max_rows, batch, eof));
        const size_t produced = batch->selected();
        stats_.rows_out += produced;
        vbatch_counter->Increment();
        vrows_counter->Increment(produced);
        if (batch->num_rows() > 0) {
          density_histogram->Observe(static_cast<double>(produced) /
                                     static_cast<double>(batch->num_rows()));
        }
        if (span != nullptr) {
          span->AddArg("rows", std::to_string(batch->num_rows()));
          span->AddArg("selected", std::to_string(produced));
        }
        return common::Status::OK();
      });
}

common::Status Operator::NextColumnBatchImpl(size_t max_rows,
                                             types::ColumnBatch* batch,
                                             bool* eof) {
  batch->Reset(schema_);
  TupleBatch rows;
  PPP_RETURN_IF_ERROR(NextBatchImpl(max_rows, &rows, eof));
  for (const types::Tuple& tuple : rows.tuples) batch->AppendTuple(tuple);
  return common::Status::OK();
}

const OperatorStats& Operator::stats() const {
  RefreshLocalStats();
  return stats_;
}

std::vector<const Operator*> Operator::Children() const {
  std::vector<Operator*> mutable_children =
      const_cast<Operator*>(this)->Children();
  return {mutable_children.begin(), mutable_children.end()};
}

void Operator::SetBatchSize(size_t batch_size) {
  batch_size_ = batch_size == 0 ? 1 : batch_size;
  for (Operator* child : Children()) child->SetBatchSize(batch_size);
}

void Operator::CollectStats(std::vector<const OperatorStats*>* out) const {
  out->push_back(&stats());
  for (const Operator* child : Children()) child->CollectStats(out);
}

common::Status Drain(Operator* op, size_t batch_size,
                     std::vector<types::Tuple>* out) {
  PPP_RETURN_IF_ERROR(op->Open());
  TupleBatch batch;
  bool eof = false;
  while (!eof) {
    batch.clear();
    PPP_RETURN_IF_ERROR(op->NextBatch(batch_size, &batch, &eof));
    for (types::Tuple& tuple : batch.tuples) {
      out->push_back(std::move(tuple));
    }
  }
  return common::Status::OK();
}

common::Status RowCursor::Open() {
  batch_.clear();
  pos_ = 0;
  eof_ = false;
  return child_->Open();
}

common::Status RowCursor::Advance(size_t batch_size, types::Tuple** row) {
  while (pos_ >= batch_.size()) {
    if (eof_) {
      *row = nullptr;
      return common::Status::OK();
    }
    batch_.clear();
    pos_ = 0;
    PPP_RETURN_IF_ERROR(child_->NextBatch(batch_size, &batch_, &eof_));
  }
  *row = &batch_.tuples[pos_++];
  return common::Status::OK();
}

common::Result<CachedPredicate> CachedPredicate::Bind(
    const expr::PredicateInfo& pred, const types::RowSchema& schema,
    const ExecContext& ctx) {
  const catalog::Catalog& catalog = *ctx.catalog;
  const ExecParams& params = ctx.params;
  CachedPredicate out;
  PPP_ASSIGN_OR_RETURN(
      std::unique_ptr<expr::BoundExpr> bound,
      expr::BoundExpr::Bind(pred.expr, schema, catalog.functions()));
  out.bound_ = std::move(bound);
  out.is_expensive_ = pred.is_expensive();

  // Cacheability and parallel safety are both properties of the functions
  // the predicate invokes.
  bool cacheable = true;
  std::vector<const expr::Expr*> calls;
  pred.expr->CollectFunctionCalls(&calls);
  for (const expr::Expr* call : calls) {
    auto def = expr::ResolveFunction(*call, catalog.functions());
    if (!def.ok() || !(*def)->cacheable) cacheable = false;
    if (!def.ok() || !(*def)->parallel_safe) out.parallel_safe_ = false;
  }

  const bool try_cache = ctx.cost_params.predicate_caching &&
                         params.cache_mode == CacheMode::kPredicate;
  ShardedPredicateCache::Options options;
  if (try_cache && pred.is_expensive() && cacheable && !calls.empty()) {
    out.cache_enabled_ = true;
    options.max_entries = params.cache_max_entries;
    options.max_bytes = params.cache_max_bytes;
    options.shards = ShardedPredicateCache::ShardsFor(
        ctx.cost_params.parallel_workers,
        params.cache_max_entries > 0 || params.cache_max_bytes > 0);
    options.adaptive = params.adaptive_caching;
    options.probe_window = params.adaptive_probe_window;
  }
  if (out.cache_enabled_ && ctx.shared_caches != nullptr) {
    // Resolve every referenced alias to its table so identical text over
    // different tables never shares a memo (see BuildSharedCacheKey).
    std::string resolved;
    bool resolvable = true;
    for (const std::string& alias : pred.tables) {
      auto it = ctx.binding.find(alias);
      if (it == ctx.binding.end() || it->second == nullptr) {
        resolvable = false;
        break;
      }
      resolved += alias;
      resolved += '=';
      resolved += it->second->name();
      resolved += ';';
    }
    if (resolvable) {
      out.cache_ = ctx.shared_caches->GetOrCreate(
          BuildSharedCacheKey(pred.expr->ToString(), resolved, options),
          options);
      return out;
    }
  }
  out.cache_ = std::make_shared<ShardedPredicateCache>(options);
  return out;
}

template <typename WriteKey, typename Compute>
bool CachedPredicate::Lookup(const WriteKey& write_key,
                             const Compute& compute) {
  // Key = the values of the predicate's input columns, serialized. This is
  // the paper's "hash table keyed on the bindings of the input variables".
  // One reused buffer per thread: the memo copies the key into a new
  // entry before `compute` runs and never reads it afterwards, so a
  // nested Eval on this thread may overwrite it.
  thread_local std::string key;
  write_key(bound_->column_indexes(), &key);
  ShardedPredicateCache::Outcome outcome;
  const bool pass = cache_->GetOrCompute(key, compute, &outcome);
  if (outcome.hit) counts_->hits.fetch_add(1, std::memory_order_relaxed);
  if (outcome.evictions > 0) {
    counts_->evictions.fetch_add(outcome.evictions,
                                 std::memory_order_relaxed);
  }
  return pass;
}

bool CachedPredicate::Eval(const types::Tuple& tuple,
                           expr::EvalContext* ctx) {
  const auto evaluate = [&] { return bound_->EvalBool(tuple, ctx); };
  if (!cache_enabled_ || cache_->disabled()) return evaluate();
  return Lookup(
      [&](const std::vector<size_t>& indexes, std::string* key) {
        tuple.SerializeProjection(indexes, key);
      },
      evaluate);
}

bool CachedPredicate::Eval(const types::Tuple& left,
                           const types::ColumnBatch& batch, size_t row,
                           expr::EvalContext* ctx,
                           std::optional<types::Tuple>* built) {
  const auto evaluate = [&] {
    types::Tuple tuple = batch.JoinRow(left, row);
    const bool pass = bound_->EvalBool(tuple, ctx);
    if (built != nullptr) built->emplace(std::move(tuple));
    return pass;
  };
  if (!cache_enabled_ || cache_->disabled()) return evaluate();
  return Lookup(
      [&](const std::vector<size_t>& indexes, std::string* key) {
        batch.SerializeProjection(left, row, indexes, key);
      },
      evaluate);
}

}  // namespace ppp::exec

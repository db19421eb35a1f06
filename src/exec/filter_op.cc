#include "exec/filter_op.h"

#include <utility>

#include "obs/metrics.h"

namespace ppp::exec {

FilterOp::FilterOp(std::unique_ptr<Operator> child,
                   CachedPredicate predicate, ExecContext* ctx)
    : child_(std::move(child)), predicate_(std::move(predicate)), ctx_(ctx) {
  schema_ = child_->schema();
  parallel_ = ctx_->cost_params.parallel_workers > 1 &&
              ctx_->thread_pool != nullptr && predicate_.is_expensive() &&
              predicate_.parallel_safe();
  if (parallel_) {
    evaluator_ = std::make_unique<ParallelPredicateEvaluator>(
        ctx_->thread_pool.get());
  }
}

common::Result<std::unique_ptr<FilterOp>> FilterOp::Make(
    std::unique_ptr<Operator> child, const expr::PredicateInfo& pred,
    ExecContext* ctx) {
  PPP_ASSIGN_OR_RETURN(
      CachedPredicate bound,
      CachedPredicate::Bind(pred, child->schema(), *ctx));
  auto op = std::make_unique<FilterOp>(std::move(child), std::move(bound),
                                       ctx);
  if (!ctx->params.vectorized || pred.expr == nullptr) return op;

  // Compile the maximal vectorizable *prefix* of the conjunction. Prefix
  // order matters for counter parity: the scalar engine short-circuits a
  // conjunction left to right, so only a prefix can be peeled off without
  // changing which rows the remainder sees.
  const std::vector<expr::ExprPtr> conjuncts =
      expr::SplitConjuncts(pred.expr);
  std::vector<VectorizedPredicate> kernels;
  size_t split = 0;
  for (; split < conjuncts.size(); ++split) {
    std::optional<VectorizedPredicate> kernel =
        VectorizedPredicate::Compile(conjuncts[split], op->child_->schema());
    if (!kernel.has_value()) break;
    kernels.push_back(std::move(*kernel));
  }
  if (kernels.empty()) return op;

  if (split < conjuncts.size()) {
    // Mixed conjunction. Splitting a predicate whose whole-conjunct memo is
    // engaged would change the cache keys and hit pattern, so leave those
    // scalar. (The suffix below can never re-enable a cache: the reasons
    // the full predicate's cache is off — caching disabled, predicate
    // cheap, or a non-cacheable function, which necessarily lives in the
    // suffix — all apply to the suffix too.)
    if (op->predicate_.cache_enabled()) return op;
    expr::PredicateInfo suffix_info = pred;
    suffix_info.expr = expr::CombineConjuncts(std::vector<expr::ExprPtr>(
        conjuncts.begin() + static_cast<ptrdiff_t>(split), conjuncts.end()));
    PPP_ASSIGN_OR_RETURN(
        CachedPredicate suffix,
        CachedPredicate::Bind(suffix_info, op->child_->schema(), *ctx));
    op->suffix_ = std::move(suffix);
  }
  op->kernels_ = std::move(kernels);
  op->use_columns_ = op->child_->provides_columns();
  return op;
}

common::Status FilterOp::OpenImpl() { return child_->Open(); }

void FilterOp::EvalScalarOnSelection(
    CachedPredicate* pred, types::ColumnBatch* batch,
    const std::vector<uint8_t>* maybe_null) {
  std::vector<uint32_t>& sel = *batch->mutable_selection();
  if (sel.empty()) return;
  size_t out = 0;
  if (parallel_) {
    survivors_.clear();
    survivors_.tuples.reserve(sel.size());
    for (const uint32_t row : sel) {
      survivors_.tuples.push_back(batch->RowAsTuple(row));
    }
    evaluator_->EvalBatch(pred, survivors_, ctx_, &keep_);
    for (size_t i = 0; i < sel.size(); ++i) {
      const uint32_t row = sel[i];
      if (keep_[i] &&
          (maybe_null == nullptr || (*maybe_null)[row] == 0)) {
        sel[out++] = row;
      }
    }
  } else {
    static const types::Tuple kNoOuter;
    for (const uint32_t row : sel) {
      // Eval unconditionally: a maybe_null row must still invoke the
      // expensive remainder (the scalar engine would), it just can't pass.
      // The key comes from the batch's columns; a hit builds no row.
      const bool pass =
          pred->Eval(kNoOuter, *batch, row, &ctx_->eval, nullptr);
      if (pass && (maybe_null == nullptr || (*maybe_null)[row] == 0)) {
        sel[out++] = row;
      }
    }
  }
  sel.resize(out);
}

common::Status FilterOp::FilterColumns(types::ColumnBatch* batch) {
  static obs::Counter* pruned_counter =
      obs::MetricsRegistry::Global().GetCounter("exec.vector.pruned");
  bool native = !kernels_.empty();
  for (const VectorizedPredicate& kernel : kernels_) {
    if (!kernel.Applicable(*batch)) {
      native = false;
      break;
    }
  }
  if (!native) {
    // No kernels (or a referenced column fell back to boxed storage this
    // batch): evaluate the whole predicate scalar over the selection —
    // exactly the row engine's semantics.
    EvalScalarOnSelection(&predicate_, batch, nullptr);
    return common::Status::OK();
  }

  const size_t before = batch->selected();
  std::vector<uint8_t>* maybe_null = nullptr;
  if (suffix_.has_value()) {
    maybe_null_.assign(batch->num_rows(), 0);
    maybe_null = &maybe_null_;
  }
  for (const VectorizedPredicate& kernel : kernels_) {
    kernel.Filter(batch, maybe_null);
    if (batch->selected() == 0) break;
  }
  pruned_counter->Increment(before - batch->selected());
  if (suffix_.has_value() && batch->selected() > 0) {
    // Late expensive pass: UDFs see only the surviving positions.
    EvalScalarOnSelection(&*suffix_, batch, maybe_null);
  }
  return common::Status::OK();
}

common::Status FilterOp::NextColumnBatchImpl(size_t max_rows,
                                             types::ColumnBatch* batch,
                                             bool* eof) {
  *eof = false;
  // Loop until at least one row survives (or eof), so a selective predicate
  // doesn't bubble empty batches up the pipeline.
  do {
    PPP_RETURN_IF_ERROR(child_->NextColumnBatch(max_rows, batch, eof));
    if (batch->selected() > 0) {
      PPP_RETURN_IF_ERROR(FilterColumns(batch));
    }
  } while (batch->selected() == 0 && !*eof);
  return common::Status::OK();
}

common::Status FilterOp::NextBatchImpl(size_t max_rows, TupleBatch* batch,
                                       bool* eof) {
  if (use_columns_) {
    // Columnar core with a row-world shim: pull columns from the child,
    // narrow the selection, materialize only the survivors.
    PPP_RETURN_IF_ERROR(NextColumnBatchImpl(max_rows, &column_scratch_, eof));
    column_scratch_.ToTuples(&batch->tuples);
    return common::Status::OK();
  }
  *eof = false;
  TupleBatch input;
  // Loop until we produce at least one row (or hit eof), so a selective
  // predicate doesn't bubble empty batches up the pipeline.
  while (batch->empty() && !*eof) {
    input.clear();
    PPP_RETURN_IF_ERROR(child_->NextBatch(max_rows, &input, eof));
    if (input.empty()) continue;
    if (parallel_) {
      std::vector<char> keep;
      evaluator_->EvalBatch(&predicate_, input, ctx_, &keep);
      for (size_t i = 0; i < input.size(); ++i) {
        if (keep[i]) batch->tuples.push_back(std::move(input.tuples[i]));
      }
    } else {
      for (types::Tuple& tuple : input.tuples) {
        if (predicate_.Eval(tuple, &ctx_->eval)) {
          batch->tuples.push_back(std::move(tuple));
        }
      }
    }
  }
  return common::Status::OK();
}

std::string FilterOp::Describe() const {
  std::string out = "Filter";
  if (!kernels_.empty() && parallel_) {
    out += "(vector+parallel)";
  } else if (!kernels_.empty()) {
    out += "(vector)";
  } else if (parallel_) {
    out += "(parallel)";
  }
  return out;
}

void FilterOp::RefreshLocalStats() const {
  stats_.has_cache = true;
  stats_.cache_enabled = predicate_.cache_enabled();
  stats_.cache_hits = predicate_.cache_hits();
  stats_.cache_entries = predicate_.cache_entries();
  stats_.cache_evictions = predicate_.cache_evictions();
}

}  // namespace ppp::exec

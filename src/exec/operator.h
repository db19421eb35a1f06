#ifndef PPP_EXEC_OPERATOR_H_
#define PPP_EXEC_OPERATOR_H_

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "cost/cost_params.h"
#include "exec/bloom_filter.h"
#include "exec/pred_cache.h"
#include "expr/evaluator.h"
#include "expr/predicate.h"
#include "storage/io_stats.h"
#include "types/column_batch.h"
#include "types/row_schema.h"
#include "types/tuple.h"

namespace ppp::exec {

class SharedPredicateCacheRegistry;

/// Which memoization layer absorbs repeated expensive evaluations (§5.1
/// discusses the design space).
enum class CacheMode {
  /// No memoization at all.
  kNone,
  /// Montage's choice: cache whole predicates, keyed on the bindings of
  /// their input variables.
  kPredicate,
  /// The [Jhi88] alternative: cache individual function results. Weaker
  /// when a predicate derives large intermediate objects, which is exactly
  /// why Montage caches predicates (§5.1).
  kFunction,
};

/// Execution-time knobs the optimizer does not model. The knobs it does
/// model — predicate_caching (the §5.1 master switch), parallel_workers
/// and predicate_transfer — are read from ExecContext::cost_params.
struct ExecParams {
  CacheMode cache_mode = CacheMode::kPredicate;

  /// Per-cache entry bound (FIFO replacement); 0 = unbounded. The paper:
  /// "Function or predicate caches can be limited in size, using any of a
  /// variety of replacement schemes."
  size_t cache_max_entries = 0;

  /// Per-cache memory bound in bytes (approximate: key bytes + fixed
  /// per-entry overhead); 0 = unbounded. Evictions count into the
  /// exec.pred_cache.evictions counter.
  size_t cache_max_bytes = 0;

  /// The optimization "planned for Montage but not implemented" (§5.1):
  /// stop caching a predicate whose inputs never repeat. Implemented
  /// online: a cache observing zero hits in its first
  /// `adaptive_probe_window` probes disables itself and frees its entries.
  bool adaptive_caching = false;

  /// Probes an adaptive cache gets before the zero-hit check, in both
  /// cache modes (predicate and function).
  uint64_t adaptive_probe_window = 512;

  /// Rows per TupleBatch in the batch-at-a-time pipeline. 0 is invalid and
  /// clamped to 1 at ExecutePlan entry (and defensively by SetBatchSize and
  /// the batch wrappers).
  size_t batch_size = 1024;

  /// Columnar fast path: scans decode pages straight into column-major
  /// ColumnBatches and FilterOp runs cheap conjuncts as vectorized kernels
  /// over a selection vector, evaluating expensive UDFs late against only
  /// the surviving positions; the pipeline breakers (HashJoin's build,
  /// MergeJoin, Sort) pull column batches. Results, invocation counters
  /// and page reads (sequential, random, and pins) are identical either
  /// way (parity-tested); off forces the row-oriented batch pipeline
  /// everywhere, the breakers transposing row batches into columns. No
  /// plan depends on it, so it is not part of the plan-cache key.
  bool vectorized = true;

  /// Probes a transferred filter (cost::CostParams::predicate_transfer)
  /// must see before the kill switch may fire.
  uint64_t transfer_min_probes = 512;

  /// Cross-query kill memory: before building a Bloom transfer, consult
  /// the profiler's history for the site and skip creation when the filter
  /// was previously killed or passed nearly everything. Off by default so
  /// single-query benches keep their per-run kill behaviour; the serving
  /// layer turns it on (amortizing the kill decision across the workload).
  bool transfer_cross_query_kill = false;
};

/// A batch of tuples flowing between operators: the row protocol is
/// batch-at-a-time only (batch_size=1 reproduces tuple-at-a-time pulls).
struct TupleBatch {
  std::vector<types::Tuple> tuples;

  size_t size() const { return tuples.size(); }
  bool empty() const { return tuples.empty(); }
  void clear() { tuples.clear(); }
};

/// Shared state of one plan execution: invocation counters (the paper's
/// measurement currency) and configuration. Predicate caches live in the
/// operators themselves so they survive nested-loop rescans — which is
/// precisely what makes rescans affordable (§5.1).
struct ExecContext {
  const catalog::Catalog* catalog = nullptr;
  expr::TableBinding binding;
  ExecParams params;
  /// The cost model's knobs the plan was optimized under. The executor
  /// reads the ones it shares with the model from here: predicate_caching,
  /// parallel_workers and predicate_transfer.
  cost::CostParams cost_params;
  expr::EvalContext eval;
  /// Backing store for eval.function_cache when cache_mode == kFunction
  /// (wired by ExecutePlan).
  expr::FunctionCache function_cache_storage;
  /// Worker pool for the parallel predicate evaluator; created by
  /// ExecutePlan when cost_params.parallel_workers > 1 and reused across
  /// executions on the same context.
  std::shared_ptr<common::ThreadPool> thread_pool;
  /// Transfers awaiting a probe-side consumer during plan construction:
  /// a hash join pushes its slot before its outer subtree is built, the
  /// matching scan claims it, and the join pops it afterwards.
  std::vector<std::shared_ptr<BloomTransfer>> pending_transfers;
  /// Every transfer created for this execution, for end-of-query stats
  /// (profiler + metrics, and the pruned-row total of the statement's
  /// ppp_query_log record). Cleared by ExecutePlan on entry.
  std::vector<std::shared_ptr<BloomTransfer>> all_transfers;

  /// Engine-wide predicate-cache registry (serving layer). When set,
  /// CachedPredicate::Bind acquires its memo here instead of building a
  /// private one, so sessions share §5.1 cache entries across queries.
  /// Null (the default) keeps the historical per-bind caches.
  SharedPredicateCacheRegistry* shared_caches = nullptr;
};

/// Per-operator runtime telemetry, accumulated by the Open()/NextBatch()/
/// NextColumnBatch() wrappers across the operator's whole lifetime
/// (rescans included).
///
/// `io` is *inclusive*: the delta of the calling thread's
/// storage::ThreadIo() across this operator's calls covers its entire
/// subtree, because child calls nest inside the parent's (a nested
/// subquery execution runs on the same thread, so its pages count too).
/// EXPLAIN ANALYZE derives the self share as inclusive minus the children's
/// inclusive totals. Wall-clock fields are diagnostic only — the paper's
/// charged time is computed from counters, never from these timers.
struct OperatorStats {
  uint64_t opens = 0;
  uint64_t batches = 0;
  uint64_t rows_out = 0;
  double open_seconds = 0.0;
  double next_seconds = 0.0;
  storage::IoStats io;

  /// Inclusive UDF invocations: the delta of expr::ThreadUdfCalls() across
  /// this operator's calls, covering the subtree like `io`. Calls the
  /// parallel evaluator's pool threads make are credited to the
  /// coordinator, and other sessions' calls never count, so the figure is
  /// exact under concurrency.
  uint64_t udf_invocations = 0;

  /// Predicate-cache view (operators owning a CachedPredicate only).
  bool has_cache = false;
  bool cache_enabled = false;
  uint64_t cache_hits = 0;
  uint64_t cache_entries = 0;
  uint64_t cache_evictions = 0;

  /// Transferred-Bloom-filter view (probe-side scans only; counters summed
  /// over every filter attached to the scan).
  bool has_transfer = false;
  uint64_t transfer_probed = 0;
  uint64_t transfer_passed = 0;
  bool transfer_killed = false;
  /// Measured false-positive rate (join-miss feedback); < 0 when unknown.
  double transfer_fpr = -1.0;
};

/// Volcano-style iterator over batches. Open() may be called repeatedly:
/// nested-loop join restarts its inner subtree by re-opening it, and any
/// per-operator caches must survive the restart.
///
/// There is one row protocol: subclasses implement OpenImpl() and
/// NextBatchImpl(); operators that fill ColumnBatches natively also
/// override NextColumnBatchImpl() (the columnar fast path). Operators that
/// consume their input row by row read it through a RowCursor, so
/// batch_size=1 reproduces tuple-at-a-time pulls. The public Open(),
/// NextBatch() and NextColumnBatch() are non-virtual wrappers sharing one
/// instrumentation helper (span, wall time, and the inclusive deltas of the
/// calling thread's I/O and UDF counters).
class Operator {
 public:
  virtual ~Operator() = default;

  common::Status Open();

  /// Appends up to `max_rows` tuples to `batch` (callers pass it empty).
  /// *eof set means the stream is exhausted — the final batch may still
  /// carry rows. A false *eof with an empty batch is legal (an operator
  /// may decline to produce this round); drivers must loop on *eof only.
  common::Status NextBatch(size_t max_rows, TupleBatch* batch, bool* eof);

  /// Columnar pull: overwrites `batch` (any prior contents are discarded)
  /// with up to `max_rows` rows; the selection vector marks the survivors.
  /// Same eof contract as NextBatch: a non-eof call may produce an empty
  /// selection. The default adapter converts NextBatchImpl's row batch, so
  /// every operator speaks the protocol; pulling columns is only a win when
  /// provides_columns() says the operator fills them natively.
  common::Status NextColumnBatch(size_t max_rows, types::ColumnBatch* batch,
                                 bool* eof);

  /// True when this operator fills ColumnBatches natively (scans, and
  /// vectorized filters above them). Consumers use it to decide whether to
  /// pull columns or rows.
  virtual bool provides_columns() const { return false; }

  const types::RowSchema& schema() const { return schema_; }

  /// This operator's telemetry, with any operator-local cache counters
  /// folded in.
  const OperatorStats& stats() const;

  /// One-line physical description, e.g. "SeqScan(t3)".
  virtual std::string Describe() const = 0;

  /// Child operators in plan order (outer before inner). IndexNestedLoop
  /// has only its outer child here — the probed inner table is not an
  /// operator.
  virtual std::vector<Operator*> Children() { return {}; }
  std::vector<const Operator*> Children() const;

  /// Sets the batch size this subtree uses when pulling from its children
  /// (pipeline breakers draining on Open, row cursors), recursively.
  void SetBatchSize(size_t batch_size);

  /// Appends this subtree's stats in depth-first plan order.
  void CollectStats(std::vector<const OperatorStats*>* out) const;

 protected:
  virtual common::Status OpenImpl() = 0;

  /// Native row batch fill; same contract as NextBatch().
  virtual common::Status NextBatchImpl(size_t max_rows, TupleBatch* batch,
                                       bool* eof) = 0;

  /// Default columnar adapter: pulls one row batch via NextBatchImpl() and
  /// transposes it. Operators that report provides_columns() override this
  /// with a native fill.
  virtual common::Status NextColumnBatchImpl(size_t max_rows,
                                             types::ColumnBatch* batch,
                                             bool* eof);

  /// Folds operator-local counters (predicate caches) into `stats_`;
  /// overridden by operators owning a CachedPredicate.
  virtual void RefreshLocalStats() const {}

  types::RowSchema schema_;
  mutable OperatorStats stats_;
  size_t batch_size_ = 1024;

 private:
  /// The instrumentation shared by every public entry point: runs
  /// `body(span)` inside an optional "<phase><Describe()>" span, adds its
  /// wall time to *seconds and its inclusive thread I/O and UDF deltas to
  /// stats_. `span` is null when tracing is off. Defined (and only
  /// instantiated) in operator.cc.
  template <typename Body>
  common::Status Instrumented(const char* phase, double* seconds,
                              const Body& body);
};

/// Drains `op` into `out` (after Open), pulling batch-at-a-time.
common::Status Drain(Operator* op, size_t batch_size,
                     std::vector<types::Tuple>* out);

/// Row-at-a-time view of a child's NextBatch stream, for operators that
/// consume their input one row at a time (the streaming joins). The next
/// batch is pulled only once the current one is used up, so rows arrive in
/// stream order and every predicate downstream sees them in the same order
/// at any batch size.
class RowCursor {
 public:
  explicit RowCursor(Operator* child) : child_(child) {}

  /// (Re-)opens the child and drops any buffered rows.
  common::Status Open();

  /// Points *row at the next row, or sets it to nullptr once the stream is
  /// exhausted. The row stays valid (and may be moved from) until the next
  /// Advance() or Open().
  common::Status Advance(size_t batch_size, types::Tuple** row);

 private:
  Operator* child_;
  TupleBatch batch_;
  size_t pos_ = 0;
  bool eof_ = false;
};

/// A predicate bound to an input schema, with an optional memo table keyed
/// on the values of the predicate's input columns (the paper caches whole
/// predicates, not functions — §5.1). The memo is a ShardedPredicateCache,
/// so Eval is safe to call concurrently from the parallel predicate
/// evaluator's workers (each with its own EvalContext).
///
/// Two probe forms write the same key bytes: one from a row Tuple, and one
/// from (outer Tuple, column batch, row) that reads each input cell
/// straight from column storage. The columnar form serves the nested-loop
/// join's candidate pairs and the filter's scalar pass over a selection;
/// it builds a row only when the predicate must run, so a cache hit costs
/// one key write and one hash probe.
class CachedPredicate {
 public:
  /// Binds and configures memoization from `ctx`: the predicate-level
  /// cache engages when cost_params.predicate_caching is on in kPredicate
  /// mode, the predicate is expensive, and all its functions are
  /// cacheable. Bounds and the adaptive self-disable follow ctx.params.
  ///
  /// With ctx.shared_caches set, the memo is acquired from the engine-wide
  /// registry under the predicate's canonical identity (aliases resolved
  /// through ctx.binding) instead of built fresh — hit/eviction accessors
  /// stay per-bind exact because each probe reports its own outcome.
  static common::Result<CachedPredicate> Bind(const expr::PredicateInfo& pred,
                                              const types::RowSchema& schema,
                                              const ExecContext& ctx);

  /// Evaluates (three-valued logic collapsed to pass/fail). Cache hits do
  /// not invoke any function.
  bool Eval(const types::Tuple& tuple, expr::EvalContext* ctx);

  /// Evaluates on the row `left ++ batch[row]` (the predicate was bound to
  /// that concatenated schema; `left` is empty for a filter over the
  /// batch). The cache key is written from `left`'s values and the batch's
  /// column storage — the bytes the Tuple form keys on — and the row is
  /// built only when the predicate must run (a cache miss, or no cache).
  /// *built, when non-null, then holds it, so a join emitting the row need
  /// not build it again.
  bool Eval(const types::Tuple& left, const types::ColumnBatch& batch,
            size_t row, expr::EvalContext* ctx,
            std::optional<types::Tuple>* built);

  bool cache_enabled() const {
    return cache_enabled_ && !cache_->disabled();
  }
  size_t cache_entries() const { return cache_->entries(); }
  /// Hits/evictions of this bind's own probes, so per-operator stats stay
  /// exact even when other sessions use the same shared memo.
  uint64_t cache_hits() const {
    return counts_->hits.load(std::memory_order_relaxed);
  }
  uint64_t cache_evictions() const {
    return counts_->evictions.load(std::memory_order_relaxed);
  }

  /// True when the predicate references at least one expensive function —
  /// the only predicates worth fanning out.
  bool is_expensive() const { return is_expensive_; }

  /// True when every function the predicate invokes is parallel_safe, i.e.
  /// may run on worker threads.
  bool parallel_safe() const { return parallel_safe_; }

 private:
  CachedPredicate() = default;

  /// Probes the memo with the key `write_key(indexes, &key)` writes for
  /// the predicate's input columns, running `compute` on a miss, and
  /// counts the outcome for this bind. Defined (and only instantiated) in
  /// operator.cc.
  template <typename WriteKey, typename Compute>
  bool Lookup(const WriteKey& write_key, const Compute& compute);

  /// Per-bind probe outcomes; atomic because the parallel evaluator's
  /// workers call Eval concurrently.
  struct BindCounts {
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> evictions{0};
  };

  std::shared_ptr<expr::BoundExpr> bound_;
  bool cache_enabled_ = false;
  bool is_expensive_ = false;
  bool parallel_safe_ = true;
  /// Always non-null after Bind (disabled caches use a zero-capacity
  /// configuration purely for the accessors); shared so CachedPredicate
  /// stays copyable.
  std::shared_ptr<ShardedPredicateCache> cache_;
  std::shared_ptr<BindCounts> counts_ = std::make_shared<BindCounts>();
};

}  // namespace ppp::exec

#endif  // PPP_EXEC_OPERATOR_H_

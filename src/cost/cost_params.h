#ifndef PPP_COST_COST_PARAMS_H_
#define PPP_COST_COST_PARAMS_H_

namespace ppp::cost {

/// Knobs of the cost model. All costs are in random-I/O units, the same
/// currency as FunctionDef::cost_per_call, so "costly100 = 100" means one
/// hundred random page reads per invocation exactly as in the paper.
///
/// The knobs the optimizer models *and* the executor obeys
/// (predicate_caching, parallel_workers, predicate_transfer) live only
/// here: a plan executes under the CostParams it was optimized with
/// (exec::ExecContext::cost_params), and the plan-cache key hashes every
/// field, so model and executor cannot disagree.
struct CostParams {
  /// Cost of reading one page sequentially / randomly.
  double seq_page_io = 1.0;
  double rand_page_io = 1.0;

  /// Cost of one B-tree descent ("typically 3 I/Os or less", §3.2).
  double index_probe_ios = 3.0;

  /// Pages of working memory available to a sort or hash join before it
  /// must spill. Chosen well below the benchmark table sizes, mirroring the
  /// paper's 32 MB memory vs 110 MB database.
  double buffer_pages = 256.0;

  /// Merge fanout of the external sort.
  double sort_fanout = 8.0;

  /// When true (the Montage model of §3.2), a join node has a *different*
  /// selectivity for each input stream: sel over R = s * {S}. When false,
  /// the "global" cost model of [HS93a] is used (same selectivity `s` for
  /// both inputs) — the model the paper discards as inaccurate. Ablation A1.
  bool per_input_selectivity = true;

  /// When true, rank calculations assume predicate caching (§5.1):
  /// join selectivities are computed on *values* rather than tuples and
  /// clamped at 1, and a Filter is charged for at most one evaluation per
  /// distinct input binding. The executor reads the same field
  /// (ExecContext::cost_params), so it memoizes exactly when the model
  /// assumes it does. Ablation A2.
  bool predicate_caching = true;

  /// Total threads (coordinator included) the executor fans an
  /// expensive-predicate filter's batch across; 1 = serial. The model
  /// divides a Filter's per-tuple predicate charge by this parallelism:
  /// expensive predicates are latency-bound (their cost is declared in
  /// random-I/O units), so concurrent workers overlap that latency. Join
  /// primaries are not parallelized by the executor and keep full cost.
  int parallel_workers = 1;

  /// When true (Montage behaviour, §5.2), `{R}` in per-input selectivities
  /// and differential costs is the *current* planned cardinality, including
  /// expensive selections currently placed below the join — risking
  /// over-eager pullup. When false, expensive selections below are assumed
  /// to pass everything (the under-eager direction). Ablation A4.
  bool current_cardinality_estimate = true;

  /// When true, predicate analysis consults obs::PredicateFeedbackStore for
  /// observed UDF cost/selectivity, overriding the static catalog numbers
  /// for any function that has been profiled (the \calibrate path).
  bool use_feedback = false;

  /// When true, predicate analysis consults collected ANALYZE statistics
  /// (histograms, MCVs, NDV sketches) for column selectivities and join
  /// distinct counts, overriding the declared catalog numbers for any
  /// table that has been analyzed. Sits between feedback and declared in
  /// the provenance ladder: feedback > stats > declared.
  bool use_collected_stats = true;

  /// Predicate transfer, modeled and executed: every hash join on a cheap
  /// simple equi-join key pushes a build-side Bloom filter into its
  /// probe-side scan, so the join's probe-input selectivity is modeled as
  /// already applied at the scan. Expensive predicates on the probe side
  /// are then ranked against post-transfer cardinalities, which keeps them
  /// below the join (a near-free filter has rank ≈ -1/0 — nothing beats
  /// it).
  bool predicate_transfer = false;

  /// Field-wise equality: the serving layer re-keys its plan-cache params
  /// hash only when a session's knobs actually move.
  bool operator==(const CostParams&) const = default;
};

}  // namespace ppp::cost

#endif  // PPP_COST_COST_PARAMS_H_

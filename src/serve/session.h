#ifndef PPP_SERVE_SESSION_H_
#define PPP_SERVE_SESSION_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "cost/cost_params.h"
#include "exec/executor.h"
#include "exec/operator.h"
#include "exec/shared_caches.h"
#include "obs/stats_tier.h"
#include "obs/trace.h"
#include "optimizer/optimizer.h"
#include "parser/normalize.h"
#include "serve/plan_cache.h"
#include "types/row_schema.h"
#include "types/tuple.h"
#include "types/value.h"
#include "workload/database.h"

namespace ppp::serve {

/// Per-session planning/execution configuration. Each session owns its
/// copy (the per-session isolation of the tentpole); the shared engine
/// context lives in the manager.
struct SessionOptions {
  optimizer::Algorithm algorithm = optimizer::Algorithm::kMigration;
  cost::CostParams cost_params;
  exec::ExecParams exec_params;
  /// Probe/fill the manager's plan cache for this session's queries.
  bool use_plan_cache = true;
};

/// One PREPAREd statement family. Keyed on the normalized family hash in
/// the shared engine state, so two sessions preparing statements that
/// differ only in constants (or placeholder spelling) share one entry;
/// each session maps its own statement names onto these.
struct PreparedFamily {
  std::string family_text;  ///< Normalized body, literals as $n slots.
  uint64_t family_hash = 0;
  size_t num_params = 0;
  /// Lexical class each slot was spelled with in the PREPARE body —
  /// EXECUTE arguments are checked (and int→float widened) against it;
  /// kHole slots (explicit $n) accept any scalar.
  std::vector<parser::ParamKind> param_kinds;
  /// family_text cut at its $n slots once, at PREPARE: text_pieces[i]
  /// precedes slot piece_slots[i] (0-based) and the last piece trails, so
  /// an EXECUTE renders its concrete text without re-scanning the family.
  std::vector<std::string> text_pieces;
  std::vector<size_t> piece_slots;
};

/// Outcome of one Session::Execute call.
struct QueryResult {
  /// The query's rows; for EXPLAIN [ANALYZE], the plan's lines, one per
  /// row in a single string column `plan`.
  std::vector<types::Tuple> rows;
  types::RowSchema schema;
  /// The executed plan (shared with the cache on a hit) for printing and
  /// inspection; null for ANALYZE and PREPARE statements.
  std::shared_ptr<const plan::PlanNode> plan;
  /// Seconds spent producing an executable plan: normalize+parse+bind+
  /// optimize on a miss, cache probe on a hit — the quantity the plan
  /// cache amortizes.
  double optimize_seconds = 0.0;
  /// Seconds running the plan; for ANALYZE, building and installing the
  /// statistics.
  double execute_seconds = 0.0;
  bool plan_cache_hit = false;
  /// The statement's query id: its spans, its ppp_query_log record and
  /// its ppp_operator_audit rows carry it. 0 for ANALYZE and PREPARE.
  uint64_t query_id = 0;
  uint64_t text_hash = 0;
  uint64_t plan_fingerprint = 0;
  /// What the execution cost in the paper's currency: page I/O, output
  /// rows and per-function invocations. Zero when nothing executed
  /// (EXPLAIN, ANALYZE, PREPARE).
  exec::ExecStats stats;
  /// The optimizer's figures when this statement optimized (a plan-cache
  /// miss or an EXPLAIN); zero on a hit.
  double est_cost = 0.0;
  size_t plans_retained = 0;
  optimizer::DpStats dp_stats;
  /// EXPLAIN [ANALYZE] only: the optimizer's decision trace.
  obs::OptTrace trace;
  /// For ANALYZE statements: tables analyzed (rows/schema stay empty).
  size_t analyzed_tables = 0;
  /// PREPARE/EXECUTE: the statement's family hash (0 for plain queries).
  uint64_t family_hash = 0;
  /// EXECUTE only: the plan came from the family (generic) cache with
  /// fresh parameters substituted — no parse, no optimize.
  bool generic_plan = false;
  /// PREPARE only: the statement name just registered.
  std::string prepared_name;
};

/// Aggregate per-session counters, the backing row of ppp_sessions.
/// Retained (with active = false) after the session closes so a workload's
/// full history stays queryable.
struct SessionRow {
  uint64_t session_id = 0;
  bool active = false;
  bool plan_cache = true;
  uint64_t queries = 0;
  uint64_t plan_cache_hits = 0;
  uint64_t plan_cache_misses = 0;
  uint64_t rows_returned = 0;
};

class SessionManager;
class Session;

namespace internal {
/// Engine context shared by every session of one manager: the plan cache,
/// the cross-query predicate-cache registry, and the session table.
/// Sessions hold it by shared_ptr so a session outliving its manager
/// degrades gracefully; system-table providers hold it weakly.
struct ServeState {
  workload::Database* db = nullptr;
  PlanCache plan_cache;
  exec::SharedPredicateCacheRegistry shared_caches;
  bool plan_cache_enabled = true;
  bool share_predicate_caches = true;

  std::mutex mu;
  uint64_t next_session_id = 1;
  std::map<uint64_t, SessionRow> sessions;
  /// PREPAREd families by family hash, shared engine-wide (guarded by mu).
  std::map<uint64_t, std::shared_ptr<const PreparedFamily>> prepared_families;

  explicit ServeState(workload::Database* db_in,
                      const PlanCache::Options& cache_options)
      : db(db_in), plan_cache(cache_options) {}
};
}  // namespace internal

/// One client's handle onto the shared engine: per-session ExecParams /
/// CostParams / algorithm, a persistent ExecContext (function cache and
/// worker pool survive across queries), and Execute() for SELECT and
/// ANALYZE statements. Sessions are NOT individually thread-safe — one
/// thread per session, many sessions in parallel is the supported model
/// (everything shared underneath is synchronized).
class Session {
 public:
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  uint64_t id() const { return id_; }

  /// Runs one statement. SELECTs go through the plan cache (when enabled
  /// for both manager and session): normalize → probe → on miss
  /// parse/bind/rewrite/optimize and fill. `EXPLAIN <select>` always plans
  /// fresh (no probe, no fill) and stops after optimize; `EXPLAIN ANALYZE
  /// <select>` also executes, on a statement-private context — a fresh
  /// §5.1 function cache, no shared caches, no cross-query Bloom kill — so
  /// the query is measured on its own, as the paper measures it. Both
  /// return the plan's lines as rows and fill `trace`. ANALYZE statements
  /// collect statistics and, via the catalog's stats listener, invalidate
  /// every cached plan that binds the analyzed tables. PREPARE/EXECUTE
  /// route to Prepare / ExecutePrepared.
  common::Result<QueryResult> Execute(const std::string& sql);

  /// Registers `name` for the SELECT body (which may mix literals and $n
  /// placeholders — both become parameter slots in one left-to-right
  /// numbering). Planning is deferred to the first ExecutePrepared.
  common::Result<QueryResult> Prepare(const std::string& name,
                                      const std::string& body);

  /// Binds `values` to the named statement's slots and executes. The plan
  /// comes from, in fastest-first order: the exact plan-cache entry for
  /// the rendered literal text, the family (generic) entry with fresh
  /// values substituted (plan::CloneWithParams — placement reused,
  /// selectivities frozen at prepare time), or a full parameterized
  /// plan — which then fills both cache levels when safe.
  common::Result<QueryResult> ExecutePrepared(
      const std::string& name, const std::vector<types::Value>& values);

  SessionOptions& options() { return options_; }
  const SessionOptions& options() const { return options_; }

  /// The per-session plan-cache switch (`\set plancache on|off`).
  void set_plan_cache_enabled(bool on);
  bool plan_cache_enabled() const { return options_.use_plan_cache; }

 private:
  friend class SessionManager;
  Session(std::shared_ptr<internal::ServeState> state, uint64_t id,
          SessionOptions options);

  /// Where CompileAndFill files a fresh plan: under its exact key, and a
  /// prepared statement's plan also under the family key when it takes
  /// fresh values.
  struct PlanFill {
    PlanCacheKey exact;
    uint64_t family_hash = 0;
  };

  common::Result<QueryResult> ExecuteSelect(const std::string& sql);
  common::Result<QueryResult> ExecuteAnalyze(const std::string& sql);
  common::Result<QueryResult> Explain(
      const std::string& sql, bool analyze, QueryResult result,
      std::chrono::steady_clock::time_point plan_start);
  /// Points ctx_ at the tables a cached plan was bound to.
  common::Status BindFromEntry(const CachedPlan& entry);
  /// The miss path: parse/bind/rewrite `sql` ($n slots bound to *params),
  /// bind its tables into `ctx`, optimize into result->plan (tracing into
  /// `trace`), and with a `fill` insert the plan into the plan cache.
  /// Returns the plan's weakest statistics tier.
  common::Result<obs::StatsTier> CompileAndFill(
      const std::string& sql, const std::vector<types::Value>* params,
      const PlanFill* fill, std::chrono::steady_clock::time_point plan_start,
      exec::ExecContext* ctx, QueryResult* result, obs::OptTrace* trace);
  /// Executes result->plan on `ctx` (knobs already wired) into result,
  /// leaving the operator tree in *root, then records the statement.
  common::Status ExecuteOn(exec::ExecContext* ctx, obs::StatsTier stats_tier,
                           std::chrono::steady_clock::time_point plan_start,
                           QueryResult* result,
                           std::unique_ptr<exec::Operator>* root);
  /// Files one executed statement under result.query_id: its
  /// ppp_operator_audit rows, its ppp_plan_history fold (ticking
  /// plan.changed / plan.regressed) and its ppp_query_log record.
  void RecordStatement(const QueryResult& result,
                       const exec::ExecContext& ctx,
                       const exec::Operator& root, obs::StatsTier stats_tier);
  /// Executes result.plan on the session's persistent context.
  common::Result<QueryResult> RunPlan(
      QueryResult result, obs::StatsTier stats_tier,
      std::chrono::steady_clock::time_point plan_start);
  /// Folds one statement into the ppp_sessions row; `planned` marks a
  /// SELECT or EXECUTE, whose plan either hit the cache or missed it.
  void UpdateRow(const QueryResult& result, bool planned);
  /// PlacementParamsHash of the session's current knobs, recomputed only
  /// when options_.cost_params or options_.algorithm moved since the last
  /// statement (options() hands out a mutable reference).
  uint64_t ParamsHash();

  struct ParamsHashMemo {
    cost::CostParams cost_params;
    optimizer::Algorithm algorithm;
    uint64_t hash = 0;
  };

  std::shared_ptr<internal::ServeState> state_;
  uint64_t id_ = 0;
  SessionOptions options_;
  /// Reused across queries so the function cache and worker pool persist
  /// (the per-session half of §5.1 amortization).
  exec::ExecContext ctx_;
  /// This session's statement-name → shared family bindings.
  std::map<std::string, std::shared_ptr<const PreparedFamily>> prepared_;
  std::optional<ParamsHashMemo> params_hash_memo_;
};

/// Hands out sessions over one shared engine context and wires the
/// serving-layer plumbing: the statistics listener that turns ANALYZE into
/// plan-cache invalidations, the ppp_plan_cache / ppp_sessions system
/// tables, and the serve.sessions.active gauge. Thread-safe.
class SessionManager {
 public:
  struct Options {
    PlanCache::Options plan_cache;
    /// Master plan-cache switch; overridden to off by PPP_PLAN_CACHE=0.
    bool plan_cache_enabled = true;
    /// Cross-session §5.1 predicate-cache sharing.
    bool share_predicate_caches = true;
  };

  explicit SessionManager(workload::Database* db)
      : SessionManager(db, Options()) {}
  SessionManager(workload::Database* db, Options options);
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Creates a session with the serving defaults (plan cache on, the
  /// cross-query Bloom kill on) or with explicit `options`. Sessions may
  /// outlive the manager but are usually closed first; each close retires
  /// its ppp_sessions row to inactive.
  std::unique_ptr<Session> CreateSession();
  std::unique_ptr<Session> CreateSession(const SessionOptions& options);

  PlanCache& plan_cache() { return state_->plan_cache; }
  exec::SharedPredicateCacheRegistry& shared_caches() {
    return state_->shared_caches;
  }
  bool plan_cache_enabled() const { return state_->plan_cache_enabled; }

  size_t active_sessions() const;
  std::vector<SessionRow> SessionRows() const;

 private:
  std::shared_ptr<internal::ServeState> state_;
  uint64_t listener_id_ = 0;
};

}  // namespace ppp::serve

#endif  // PPP_SERVE_SESSION_H_

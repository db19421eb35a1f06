#include "serve/session.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "catalog/system_tables.h"
#include "common/string_util.h"
#include "exec/explain.h"
#include "obs/metrics.h"
#include "obs/plan_audit.h"
#include "obs/plan_history.h"
#include "obs/query_log.h"
#include "obs/span.h"
#include "optimizer/algorithm.h"
#include "parser/normalize.h"
#include "parser/parser.h"
#include "stats/collector.h"
#include "subquery/rewrite.h"

namespace ppp::serve {

namespace {

using internal::ServeState;

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

obs::Gauge* ActiveSessionsGauge() {
  static obs::Gauge* g =
      obs::MetricsRegistry::Global().GetGauge("serve.sessions.active");
  return g;
}

/// The live ServeStates behind ppp_plan_cache / ppp_sessions.
catalog::SystemTableOwners<ServeState>& States() {
  static auto* states = new catalog::SystemTableOwners<ServeState>();
  return *states;
}

/// Tuples the leaf scans produced — the query's input volume after any
/// Bloom pre-filtering, before predicates and joins.
uint64_t SumLeafRows(const exec::Operator& op) {
  const std::vector<const exec::Operator*> children = op.Children();
  if (children.empty()) return op.stats().rows_out;
  uint64_t total = 0;
  for (const exec::Operator* child : children) total += SumLeafRows(*child);
  return total;
}

/// Predicate-cache hits across the operator tree (kPredicate mode keeps
/// its memo tables inside the operators, not in the global registry).
uint64_t SumCacheHits(const exec::Operator& op) {
  uint64_t total = op.stats().has_cache ? op.stats().cache_hits : 0;
  for (const exec::Operator* child : op.Children()) {
    total += SumCacheHits(*child);
  }
  return total;
}

/// The audit walk: pairs each plan node with its operator (same pairing
/// rule as EXPLAIN ANALYZE — the probed inner relation of an index
/// nested-loop join has no operator and is skipped) and appends one
/// OperatorAuditRecord per executed operator. Also feeds the global
/// stats.estimation.qerror histogram for every node carrying an estimate,
/// so the distribution reflects the real workload rather than only EXPLAIN
/// ANALYZE runs, and tracks the plan's worst q-error for the history.
void AuditPlan(const plan::PlanNode& plan, const exec::Operator* op,
               const std::string& path, uint64_t query_id,
               obs::PlanAudit* audit, obs::Histogram* qerror_histogram,
               double* max_qerror) {
  if (op != nullptr) {
    const exec::OperatorStats& stats = op->stats();
    obs::OperatorAuditRecord record;
    record.query_id = query_id;
    record.path = path;
    record.op = op->Describe();
    record.est_rows = plan.est_rows;
    record.actual_rows = stats.rows_out;
    if (plan.est_rows > 0.0) {
      record.qerror = obs::CardinalityQError(plan.est_rows, stats.rows_out);
      qerror_histogram->Observe(record.qerror);
      *max_qerror = std::max(*max_qerror, record.qerror);
    }
    record.inclusive_seconds = stats.open_seconds + stats.next_seconds;
    record.udf_invocations = stats.udf_invocations;
    audit->Append(std::move(record));
  }
  std::vector<const exec::Operator*> op_children =
      op != nullptr ? op->Children() : std::vector<const exec::Operator*>{};
  for (size_t i = 0; i < plan.children.size(); ++i) {
    const exec::Operator* child_op =
        i < op_children.size() ? op_children[i] : nullptr;
    AuditPlan(*plan.children[i], child_op, path + "." + std::to_string(i),
              query_id, audit, qerror_histogram, max_qerror);
  }
}

types::Value HexValue(uint64_t h) {
  return types::Value(common::StringPrintf(
      "%016llx", static_cast<unsigned long long>(h)));
}

types::Value IntValue(uint64_t v) {
  return types::Value(static_cast<int64_t>(v));
}

void RegisterServeSystemTables(catalog::Catalog* catalog) {
  using types::TypeId;
  const catalog::Catalog* key = catalog;
  auto plan_cache_rows =
      [key]() -> common::Result<std::vector<types::Tuple>> {
    std::vector<types::Tuple> rows;
    const std::shared_ptr<ServeState> state = States().Find(key);
    if (state == nullptr) return rows;
    for (const PlanCacheEntryView& e : state->plan_cache.Snapshot()) {
      rows.emplace_back(std::vector<types::Value>{
          HexValue(e.text_hash), HexValue(e.family_hash),
          HexValue(e.params_hash), HexValue(e.plan_fingerprint),
          types::Value(e.algorithm), types::Value(e.tables),
          types::Value(std::string(e.is_family ? "generic" : "exact")),
          IntValue(e.hits), IntValue(e.family_hits),
          types::Value(e.est_cost), types::Value(e.optimize_seconds),
          IntValue(static_cast<uint64_t>(e.approx_bytes))});
    }
    return rows;
  };
  auto session_rows = [key]() -> common::Result<std::vector<types::Tuple>> {
    std::vector<types::Tuple> rows;
    const std::shared_ptr<ServeState> state = States().Find(key);
    if (state == nullptr) return rows;
    std::lock_guard<std::mutex> lock(state->mu);
    for (const auto& [id, row] : state->sessions) {
      rows.emplace_back(std::vector<types::Value>{
          IntValue(row.session_id), IntValue(row.active ? 1 : 0),
          IntValue(row.plan_cache ? 1 : 0), IntValue(row.queries),
          IntValue(row.plan_cache_hits), IntValue(row.plan_cache_misses),
          IntValue(row.rows_returned)});
    }
    return rows;
  };

  // AlreadyExists is expected when a second manager binds the same
  // database: the existing tables' providers resolve through States().
  auto r1 = catalog->RegisterSystemTable(std::make_unique<catalog::Table>(
      "ppp_plan_cache",
      std::vector<catalog::ColumnDef>{{"text_hash", TypeId::kString},
                                      {"family_hash", TypeId::kString},
                                      {"params_hash", TypeId::kString},
                                      {"plan_fingerprint", TypeId::kString},
                                      {"algorithm", TypeId::kString},
                                      {"tables", TypeId::kString},
                                      {"kind", TypeId::kString},
                                      {"hits", TypeId::kInt64},
                                      {"family_hits", TypeId::kInt64},
                                      {"est_cost", TypeId::kDouble},
                                      {"optimize_seconds", TypeId::kDouble},
                                      {"approx_bytes", TypeId::kInt64}},
      plan_cache_rows, [key] {
        const std::shared_ptr<ServeState> state = States().Find(key);
        return state == nullptr
                   ? int64_t{0}
                   : static_cast<int64_t>(state->plan_cache.entries());
      }));
  (void)r1;
  auto r2 = catalog->RegisterSystemTable(std::make_unique<catalog::Table>(
      "ppp_sessions",
      std::vector<catalog::ColumnDef>{{"session_id", TypeId::kInt64},
                                      {"active", TypeId::kInt64},
                                      {"plan_cache", TypeId::kInt64},
                                      {"queries", TypeId::kInt64},
                                      {"plan_cache_hits", TypeId::kInt64},
                                      {"plan_cache_misses", TypeId::kInt64},
                                      {"rows_returned", TypeId::kInt64}},
      session_rows, [key] {
        const std::shared_ptr<ServeState> state = States().Find(key);
        if (state == nullptr) return int64_t{0};
        std::lock_guard<std::mutex> lock(state->mu);
        return static_cast<int64_t>(state->sessions.size());
      }));
  (void)r2;
}

/// Appends a bound parameter spelled the way NormalizeSql spells the same
/// literal in a QUERY, so an EXECUTE and a plain QUERY with identical
/// constants share one exact plan-cache slot. A minus sign is its own
/// token ("- 2"); doubles take their shortest round-trip spelling and keep
/// a decimal point so they never alias an integer literal. Spellings a
/// QUERY cannot produce (exponents, quotes inside strings) simply get
/// their own slot, which is correct, just not shared.
void AppendValueLiteral(const types::Value& v, std::string* out) {
  std::string_view digits;
  char buf[32];
  switch (v.type()) {
    case types::TypeId::kInt64: {
      const auto r = std::to_chars(buf, buf + sizeof(buf), v.AsInt64());
      digits = std::string_view(buf, r.ptr - buf);
      break;
    }
    case types::TypeId::kDouble: {
      const auto r = std::to_chars(buf, buf + sizeof(buf), v.AsDouble());
      digits = std::string_view(buf, r.ptr - buf);
      break;
    }
    case types::TypeId::kString:
      out->push_back('\'');
      out->append(v.AsString());
      out->push_back('\'');
      return;
    default:
      out->append(v.ToString());
      return;
  }
  if (!digits.empty() && digits[0] == '-') {
    out->append("- ");
    digits.remove_prefix(1);
  }
  out->append(digits);
  if (v.type() == types::TypeId::kDouble &&
      digits.find_first_of(".ein") == std::string_view::npos) {
    out->append(".0");
  }
}

/// Cuts the family text at its $n slots (the PREPARE-time half of
/// RenderConcreteText). Tokens are single-space separated; a token that is
/// `$` plus digits naming a slot in [1, num_params] is a slot.
void SplitFamilyText(PreparedFamily* family) {
  std::string piece;
  bool first = true;
  for (const std::string& token : common::Split(family->family_text, ' ')) {
    if (!first) piece.push_back(' ');
    first = false;
    bool is_slot = token.size() >= 2 && token[0] == '$';
    for (size_t i = 1; is_slot && i < token.size(); ++i) {
      is_slot = std::isdigit(static_cast<unsigned char>(token[i])) != 0;
    }
    const size_t slot =
        is_slot ? std::strtoull(token.c_str() + 1, nullptr, 10) : 0;
    if (slot >= 1 && slot <= family->num_params) {
      family->text_pieces.push_back(std::move(piece));
      family->piece_slots.push_back(slot - 1);
      piece.clear();
      continue;
    }
    piece.append(token);
  }
  family->text_pieces.push_back(std::move(piece));
}

/// Splices `values` between the family's text pieces, producing the
/// normalized concrete statement text.
std::string RenderConcreteText(const PreparedFamily& family,
                               const std::vector<types::Value>& values) {
  std::string out = family.text_pieces[0];
  for (size_t i = 0; i < family.piece_slots.size(); ++i) {
    AppendValueLiteral(values[family.piece_slots[i]], &out);
    out.append(family.text_pieces[i + 1]);
  }
  return out;
}

/// Validates EXECUTE arguments against the family's slot kinds, widening
/// int arguments bound to float-spelled slots.
common::Status CheckParamTypes(const PreparedFamily& family,
                               std::vector<types::Value>* values) {
  if (values->size() != family.num_params) {
    return common::Status::InvalidArgument(common::StringPrintf(
        "prepared statement takes %zu parameter(s), %zu given",
        family.num_params, values->size()));
  }
  for (size_t i = 0; i < values->size(); ++i) {
    const types::TypeId got = (*values)[i].type();
    switch (family.param_kinds[i]) {
      case parser::ParamKind::kInt:
        if (got != types::TypeId::kInt64) {
          return common::Status::InvalidArgument(common::StringPrintf(
              "parameter $%zu expects an integer", i + 1));
        }
        break;
      case parser::ParamKind::kFloat:
        if (got == types::TypeId::kInt64) {
          (*values)[i] =
              types::Value(static_cast<double>((*values)[i].AsInt64()));
        } else if (got != types::TypeId::kDouble) {
          return common::Status::InvalidArgument(common::StringPrintf(
              "parameter $%zu expects a number", i + 1));
        }
        break;
      case parser::ParamKind::kString:
        if (got != types::TypeId::kString) {
          return common::Status::InvalidArgument(common::StringPrintf(
              "parameter $%zu expects a string", i + 1));
        }
        break;
      case parser::ParamKind::kHole:
        break;  // Explicit $n slots accept any scalar.
    }
  }
  return common::Status::OK();
}

/// First keyword of `sql`, uppercased (empty when none).
std::string FirstKeyword(const std::string& sql) {
  size_t pos = 0;
  while (pos < sql.size() &&
         std::isspace(static_cast<unsigned char>(sql[pos]))) {
    ++pos;
  }
  std::string word;
  while (pos < sql.size() &&
         (std::isalnum(static_cast<unsigned char>(sql[pos])) ||
          sql[pos] == '_')) {
    word.push_back(static_cast<char>(
        std::toupper(static_cast<unsigned char>(sql[pos]))));
    ++pos;
  }
  return word;
}

}  // namespace

// ---------------------------------------------------------------------------
// SessionManager

SessionManager::SessionManager(workload::Database* db, Options options)
    : state_(std::make_shared<ServeState>(db, options.plan_cache)) {
  state_->plan_cache_enabled = options.plan_cache_enabled;
  const char* env = std::getenv("PPP_PLAN_CACHE");
  if (env != nullptr && env[0] == '0' && env[1] == '\0') {
    state_->plan_cache_enabled = false;
  }
  state_->share_predicate_caches = options.share_predicate_caches;

  States().Add(&db->catalog(), state_);
  RegisterServeSystemTables(&db->catalog());

  // ANALYZE → invalidation: a stats-epoch bump on any table drops every
  // cached plan that binds it. The listener holds the state weakly so a
  // late notification after manager teardown is a no-op.
  std::weak_ptr<ServeState> weak = state_;
  listener_id_ = db->catalog().AddStatsListener(
      [weak](const std::string& table_name) {
        const std::shared_ptr<ServeState> state = weak.lock();
        if (state != nullptr) state->plan_cache.InvalidateTable(table_name);
      });
}

SessionManager::~SessionManager() {
  state_->db->catalog().RemoveStatsListener(listener_id_);
  States().Remove(&state_->db->catalog(), state_.get());
}

std::unique_ptr<Session> SessionManager::CreateSession() {
  SessionOptions defaults;
  // Serve sessions opt into the cross-query Bloom kill memory: the whole
  // point of the layer is amortizing decisions across the workload.
  defaults.exec_params.transfer_cross_query_kill = true;
  return CreateSession(defaults);
}

std::unique_ptr<Session> SessionManager::CreateSession(
    const SessionOptions& options) {
  uint64_t id = 0;
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    id = state_->next_session_id++;
    SessionRow row;
    row.session_id = id;
    row.active = true;
    row.plan_cache = state_->plan_cache_enabled && options.use_plan_cache;
    state_->sessions[id] = row;
  }
  ActiveSessionsGauge()->Add(1.0);
  return std::unique_ptr<Session>(new Session(state_, id, options));
}

size_t SessionManager::active_sessions() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  size_t n = 0;
  for (const auto& [id, row] : state_->sessions) {
    if (row.active) ++n;
  }
  return n;
}

std::vector<SessionRow> SessionManager::SessionRows() const {
  std::lock_guard<std::mutex> lock(state_->mu);
  std::vector<SessionRow> out;
  out.reserve(state_->sessions.size());
  for (const auto& [id, row] : state_->sessions) out.push_back(row);
  return out;
}

// ---------------------------------------------------------------------------
// Session

Session::Session(std::shared_ptr<ServeState> state, uint64_t id,
                 SessionOptions options)
    : state_(std::move(state)), id_(id), options_(std::move(options)) {
  ctx_.catalog = &state_->db->catalog();
}

Session::~Session() {
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    auto it = state_->sessions.find(id_);
    if (it != state_->sessions.end()) it->second.active = false;
  }
  ActiveSessionsGauge()->Add(-1.0);
}

void Session::set_plan_cache_enabled(bool on) {
  options_.use_plan_cache = on;
  std::lock_guard<std::mutex> lock(state_->mu);
  auto it = state_->sessions.find(id_);
  if (it != state_->sessions.end()) {
    it->second.plan_cache = on && state_->plan_cache_enabled;
  }
}

common::Result<QueryResult> Session::Execute(const std::string& sql) {
  const std::string keyword = FirstKeyword(sql);
  if (keyword == "ANALYZE") return ExecuteAnalyze(sql);
  if (keyword == "PREPARE" || keyword == "EXECUTE") {
    PPP_ASSIGN_OR_RETURN(parser::ParsedStatement stmt,
                         parser::ParseStatement(sql));
    if (stmt.kind == parser::StatementKind::kPrepare) {
      return Prepare(stmt.prepare_name, stmt.prepare_body);
    }
    return ExecutePrepared(stmt.execute_name, stmt.execute_params);
  }
  return ExecuteSelect(sql);
}

common::Result<QueryResult> Session::ExecuteAnalyze(const std::string& sql) {
  PPP_ASSIGN_OR_RETURN(parser::ParsedStatement stmt,
                       parser::ParseStatement(sql));
  if (stmt.kind != parser::StatementKind::kAnalyze) {
    return common::Status::InvalidArgument(
        "expected an ANALYZE statement");
  }
  catalog::Catalog& catalog = state_->db->catalog();
  std::vector<std::string> tables = stmt.analyze_tables;
  if (tables.empty()) tables = catalog.TableNames();
  const stats::AnalyzeOptions options = stats::AnalyzeOptions::Default();
  QueryResult result;
  const auto exec_start = std::chrono::steady_clock::now();
  for (const std::string& name : tables) {
    PPP_ASSIGN_OR_RETURN(catalog::Table * table, catalog.GetTable(name));
    PPP_RETURN_IF_ERROR(stats::AnalyzeTable(table, options));
    ++result.analyzed_tables;
  }
  result.execute_seconds = SecondsSince(exec_start);
  UpdateRow(result, /*planned=*/false);
  return result;
}

common::Result<QueryResult> Session::ExecuteSelect(const std::string& sql) {
  catalog::Catalog& catalog = state_->db->catalog();

  // One query id per statement, held for all of it: every span below —
  // nested subquery executions and parallel workers included — carries
  // it, and RecordStatement files the statement's records under it.
  QueryResult result;
  result.query_id = obs::QueryLog::Global().NextQueryId();
  const obs::QueryIdScope id_scope(result.query_id, id_);

  // Root lifecycle span: probe/optimize and execute (with their own child
  // spans) nest under it, tagged with the owning session.
  std::optional<obs::Span> span;
  if (obs::SpanTracer::Global().enabled()) {
    span.emplace("query", "query");
    span->AddArg("algorithm", optimizer::AlgorithmName(options_.algorithm));
    span->AddArg("session_id", std::to_string(id_));
  }

  const auto plan_start = std::chrono::steady_clock::now();

  std::string rest;
  const parser::StatementKind kind = parser::StripExplain(sql, &rest);

  PPP_ASSIGN_OR_RETURN(parser::NormalizedQuery norm,
                       parser::NormalizeSql(rest));
  result.text_hash = norm.text_hash;
  if (kind != parser::StatementKind::kSelect) {
    return Explain(rest, kind == parser::StatementKind::kExplainAnalyze,
                   std::move(result), plan_start);
  }

  const bool use_cache =
      state_->plan_cache_enabled && options_.use_plan_cache;
  PlanFill fill;
  fill.exact.text_hash = norm.text_hash;
  fill.exact.params_hash = ParamsHash();
  fill.family_hash = norm.family_hash;

  std::shared_ptr<const CachedPlan> cached;
  if (use_cache) cached = state_->plan_cache.Probe(fill.exact, catalog);

  if (cached != nullptr) {
    // Hit: rebuild bindings from the entry; no parse, no optimize.
    PPP_RETURN_IF_ERROR(BindFromEntry(*cached));
    result.plan_cache_hit = true;
    result.plan_fingerprint = cached->plan_fingerprint;
    result.plan = cached->plan;
    return RunPlan(std::move(result), cached->stats_tier, plan_start);
  }
  PPP_ASSIGN_OR_RETURN(
      const obs::StatsTier stats_tier,
      CompileAndFill(rest, /*params=*/nullptr, use_cache ? &fill : nullptr,
                     plan_start, &ctx_, &result, /*trace=*/nullptr));
  return RunPlan(std::move(result), stats_tier, plan_start);
}

common::Result<QueryResult> Session::Explain(
    const std::string& sql, bool analyze, QueryResult result,
    std::chrono::steady_clock::time_point plan_start) {
  // EXPLAIN shows a fresh optimization: no plan-cache probe, no fill. The
  // statement-private context gives EXPLAIN ANALYZE a fresh §5.1 function
  // cache, no shared caches and no cross-query Bloom kill memory.
  exec::ExecContext ctx;
  PPP_ASSIGN_OR_RETURN(
      const obs::StatsTier stats_tier,
      CompileAndFill(sql, /*params=*/nullptr, /*fill=*/nullptr, plan_start,
                     &ctx, &result, &result.trace));
  std::string text;
  if (analyze) {
    ctx.catalog = &state_->db->catalog();
    ctx.params = options_.exec_params;
    ctx.params.transfer_cross_query_kill = false;
    ctx.cost_params = options_.cost_params;
    std::unique_ptr<exec::Operator> root;
    PPP_RETURN_IF_ERROR(
        ExecuteOn(&ctx, stats_tier, plan_start, &result, &root));
    text = exec::RenderExplainAnalyze(*result.plan, *root,
                                      &ctx.catalog->functions());
  } else {
    result.optimize_seconds = SecondsSince(plan_start);
    text = exec::RenderExplain(*result.plan);
  }
  result.schema = types::RowSchema(
      {types::ColumnInfo{"", "plan", types::TypeId::kString}});
  std::vector<std::string> lines = common::Split(text, '\n');
  if (lines.back().empty()) lines.pop_back();  // The trailing newline.
  result.rows.clear();
  for (std::string& line : lines) {
    result.rows.emplace_back(
        std::vector<types::Value>{types::Value(std::move(line))});
  }
  UpdateRow(result, /*planned=*/false);
  return result;
}

common::Status Session::BindFromEntry(const CachedPlan& entry) {
  ctx_.binding.clear();
  for (const auto& [alias, table_name] : entry.bindings) {
    PPP_ASSIGN_OR_RETURN(catalog::Table * table,
                         state_->db->catalog().GetTable(table_name));
    ctx_.binding[alias] = table;
  }
  return common::Status::OK();
}

common::Result<obs::StatsTier> Session::CompileAndFill(
    const std::string& sql, const std::vector<types::Value>* params,
    const PlanFill* fill, std::chrono::steady_clock::time_point plan_start,
    exec::ExecContext* ctx, QueryResult* result, obs::OptTrace* trace) {
  catalog::Catalog& catalog = state_->db->catalog();
  PPP_ASSIGN_OR_RETURN(
      plan::QuerySpec spec,
      params == nullptr
          ? subquery::ParseBindRewrite(sql, &catalog)
          : subquery::ParseBindRewrite(sql, *params, &catalog));
  // Capture bindings and stats epochs *before* optimizing: if an ANALYZE
  // lands mid-optimization the entry's epochs are already stale and the
  // next probe re-plans (the safe direction).
  CachedPlan entry;
  ctx->binding.clear();
  for (const plan::TableRef& ref : spec.tables) {
    PPP_ASSIGN_OR_RETURN(catalog::Table * table,
                         catalog.GetTable(ref.table_name));
    ctx->binding[ref.alias] = table;
    entry.bindings.emplace_back(ref.alias, ref.table_name);
    entry.stats_epochs.push_back(table->stats_epoch());
  }
  optimizer::Optimizer opt(&catalog, options_.cost_params);
  PPP_ASSIGN_OR_RETURN(optimizer::OptimizeResult optimized,
                       opt.Optimize(spec, options_.algorithm, trace));
  result->plan =
      std::shared_ptr<const plan::PlanNode>(std::move(optimized.plan));
  result->plan_fingerprint = result->plan->Fingerprint();
  result->est_cost = optimized.est_cost;
  result->plans_retained = optimized.plans_retained;
  result->dp_stats = optimized.dp_stats;
  const obs::StatsTier stats_tier = exec::WeakestStatsTier(*result->plan);
  if (fill == nullptr) return stats_tier;

  entry.plan = result->plan;
  entry.text_hash = fill->exact.text_hash;
  entry.family_hash = fill->family_hash;
  entry.plan_fingerprint = result->plan_fingerprint;
  entry.stats_tier = stats_tier;
  entry.algorithm = optimizer::AlgorithmName(options_.algorithm);
  entry.est_cost = optimized.est_cost;
  entry.optimize_seconds = SecondsSince(plan_start);
  // A prepared statement's constants carry their slots, so its plan is
  // also the family's generic-plan template as long as no slot got baked
  // into an index probe or subquery closure.
  if (params != nullptr &&
      plan::PlanIsParameterizable(*entry.plan, params->size())) {
    CachedPlan family_entry = entry;
    family_entry.text_hash = fill->family_hash;
    family_entry.num_params = params->size();
    state_->plan_cache.Insert(
        PlanCacheKey{fill->family_hash, fill->exact.params_hash,
                     /*family=*/true},
        std::move(family_entry));
  }
  state_->plan_cache.Insert(fill->exact, std::move(entry));
  return stats_tier;
}

uint64_t Session::ParamsHash() {
  if (!params_hash_memo_.has_value() ||
      params_hash_memo_->algorithm != options_.algorithm ||
      !(params_hash_memo_->cost_params == options_.cost_params)) {
    params_hash_memo_ = ParamsHashMemo{
        options_.cost_params, options_.algorithm,
        PlacementParamsHash(options_.cost_params,
                            optimizer::AlgorithmName(options_.algorithm))};
  }
  return params_hash_memo_->hash;
}

common::Status Session::ExecuteOn(
    exec::ExecContext* ctx, obs::StatsTier stats_tier,
    std::chrono::steady_clock::time_point plan_start, QueryResult* result,
    std::unique_ptr<exec::Operator>* root) {
  result->optimize_seconds = SecondsSince(plan_start);
  const auto exec_start = std::chrono::steady_clock::now();
  PPP_ASSIGN_OR_RETURN(result->rows,
                       exec::ExecutePlan(*result->plan, ctx, &result->stats,
                                         &result->schema, root));
  result->execute_seconds = SecondsSince(exec_start);
  RecordStatement(*result, *ctx, **root, stats_tier);
  return common::Status::OK();
}

void Session::RecordStatement(const QueryResult& result,
                              const exec::ExecContext& ctx,
                              const exec::Operator& root,
                              obs::StatsTier stats_tier) {
  // Plan audit: per-operator est-vs-actual records plus the workload-wide
  // q-error feed. Independent of the query log so PPP_QUERY_LOG=0 and
  // PPP_PLAN_AUDIT=0 cut orthogonal slices.
  double max_qerror = 0.0;
  obs::PlanAudit& audit = obs::PlanAudit::Global();
  if (audit.enabled()) {
    static obs::Histogram* qerror_histogram =
        obs::MetricsRegistry::Global().GetHistogram(
            "stats.estimation.qerror");
    AuditPlan(*result.plan, &root, "0", result.query_id, &audit,
              qerror_histogram, &max_qerror);
  }

  // Plan history: fold this execution into the (text_hash, fingerprint)
  // aggregate and learn whether the plan changed or regressed.
  uint64_t udf_invocations = 0;
  for (const auto& [name, count] : result.stats.invocations) {
    udf_invocations += count;
  }
  const obs::PlanOutcome plan_outcome = obs::PlanHistory::Global().Record(
      result.text_hash, result.plan_fingerprint,
      result.optimize_seconds + result.execute_seconds, udf_invocations,
      max_qerror, result.query_id);
  if (plan_outcome.plan_changed) {
    static obs::Counter* changed_counter =
        obs::MetricsRegistry::Global().GetCounter("plan.changed");
    changed_counter->Increment();
  }
  if (plan_outcome.plan_regressed) {
    static obs::Counter* regressed_counter =
        obs::MetricsRegistry::Global().GetCounter("plan.regressed");
    regressed_counter->Increment();
  }

  // The ppp_query_log record. Its counters come from this statement's
  // context and operators, so they stay exact while other sessions
  // execute concurrently.
  obs::QueryLog& query_log = obs::QueryLog::Global();
  if (!query_log.enabled()) return;
  obs::QueryLogRecord record;
  record.query_id = result.query_id;
  record.session_id = id_;
  record.text_hash = result.text_hash;
  record.plan_fingerprint = result.plan_fingerprint;
  record.algorithm = optimizer::AlgorithmName(options_.algorithm);
  record.optimize_seconds = result.optimize_seconds;
  record.execute_seconds = result.execute_seconds;
  record.wall_seconds = record.optimize_seconds + record.execute_seconds;
  record.rows_in = SumLeafRows(root);
  record.rows_out = result.rows.size();
  record.udf_invocations = udf_invocations;
  // Both memoization layers: the context's function cache and the
  // operators' predicate memos.
  record.cache_hits = result.stats.function_cache_hits + SumCacheHits(root);
  for (const auto& transfer : ctx.all_transfers) {
    record.transfer_pruned += transfer->pruned();
  }
  record.drift_flags =
      exec::CountDriftingPredicates(*result.plan, ctx.catalog->functions());
  record.stats_tier = stats_tier;
  record.bucket = query_log.CurrentBucket();
  record.plan_changed = plan_outcome.plan_changed;
  record.plan_regressed = plan_outcome.plan_regressed;
  query_log.Append(std::move(record));
}

common::Result<QueryResult> Session::RunPlan(
    QueryResult result, obs::StatsTier stats_tier,
    std::chrono::steady_clock::time_point plan_start) {
  // Execute on the session's persistent context. Shared engine stores are
  // wired per query (cheap pointer writes) so manager-level toggles apply
  // immediately.
  ctx_.params = options_.exec_params;
  ctx_.cost_params = options_.cost_params;
  ctx_.shared_caches =
      state_->share_predicate_caches ? &state_->shared_caches : nullptr;
  std::unique_ptr<exec::Operator> root;
  PPP_RETURN_IF_ERROR(ExecuteOn(&ctx_, stats_tier, plan_start, &result, &root));

  UpdateRow(result, /*planned=*/true);
  return result;
}

common::Result<QueryResult> Session::Prepare(const std::string& name,
                                             const std::string& body) {
  PPP_ASSIGN_OR_RETURN(parser::NormalizedQuery norm,
                       parser::NormalizeSql(body));
  // Surface parse errors at PREPARE time (null stand-ins for the slots);
  // binding and optimization wait for the first EXECUTE's real values.
  const std::vector<types::Value> stand_ins(norm.params.size());
  PPP_ASSIGN_OR_RETURN(parser::ParsedSelect parsed,
                       parser::ParseSelect(norm.family_text, stand_ins));
  (void)parsed;

  auto family = std::make_shared<PreparedFamily>();
  family->family_text = norm.family_text;
  family->family_hash = norm.family_hash;
  family->num_params = norm.params.size();
  family->param_kinds = norm.param_kinds;
  SplitFamilyText(family.get());
  std::shared_ptr<const PreparedFamily> shared = family;
  {
    // Statements differing only in constants normalize to one family —
    // re-preparing an existing family shares the first entry.
    std::lock_guard<std::mutex> lock(state_->mu);
    auto [it, inserted] =
        state_->prepared_families.emplace(norm.family_hash, shared);
    if (!inserted) shared = it->second;
  }
  prepared_[name] = shared;

  QueryResult result;
  result.family_hash = norm.family_hash;
  result.prepared_name = name;
  UpdateRow(result, /*planned=*/false);
  return result;
}

common::Result<QueryResult> Session::ExecutePrepared(
    const std::string& name, const std::vector<types::Value>& values) {
  const auto prep_it = prepared_.find(name);
  if (prep_it == prepared_.end()) {
    return common::Status::InvalidArgument("unknown prepared statement '" +
                                           name + "'");
  }
  const std::shared_ptr<const PreparedFamily> family = prep_it->second;
  std::vector<types::Value> bound = values;
  PPP_RETURN_IF_ERROR(CheckParamTypes(*family, &bound));

  catalog::Catalog& catalog = state_->db->catalog();
  QueryResult result;
  result.query_id = obs::QueryLog::Global().NextQueryId();
  const obs::QueryIdScope id_scope(result.query_id, id_);
  std::optional<obs::Span> span;
  if (obs::SpanTracer::Global().enabled()) {
    span.emplace("query", "execute_prepared");
    span->AddArg("statement", name);
    span->AddArg("session_id", std::to_string(id_));
  }

  const auto plan_start = std::chrono::steady_clock::now();
  const bool use_cache =
      state_->plan_cache_enabled && options_.use_plan_cache;
  PlanFill fill;
  fill.exact = PlanCacheKey{
      common::Fnv1aHash(RenderConcreteText(*family, bound)), ParamsHash(),
      /*family=*/false};
  fill.family_hash = family->family_hash;
  const PlanCacheKey family_key{family->family_hash, fill.exact.params_hash,
                                /*family=*/true};

  result.text_hash = fill.exact.text_hash;
  result.family_hash = family->family_hash;

  // Fastest path: this exact literal combination already has a plan.
  std::shared_ptr<const CachedPlan> cached;
  if (use_cache) cached = state_->plan_cache.Probe(fill.exact, catalog);
  if (cached != nullptr) {
    PPP_RETURN_IF_ERROR(BindFromEntry(*cached));
    result.plan_cache_hit = true;
    result.plan_fingerprint = cached->plan_fingerprint;
    result.plan = cached->plan;
    return RunPlan(std::move(result), cached->stats_tier, plan_start);
  }

  // Generic-plan path: substitute fresh values into the family's plan —
  // placement and join order are reused without parse/bind/optimize.
  std::shared_ptr<const CachedPlan> generic;
  if (use_cache) generic = state_->plan_cache.Probe(family_key, catalog);
  if (generic != nullptr) {
    plan::PlanPtr substituted = plan::CloneWithParams(*generic->plan, bound);
    if (substituted != nullptr) {
      PPP_RETURN_IF_ERROR(BindFromEntry(*generic));
      result.plan =
          std::shared_ptr<const plan::PlanNode>(std::move(substituted));
      result.plan_cache_hit = true;
      result.generic_plan = true;
      result.plan_fingerprint = result.plan->Fingerprint();
      // Promote into the exact level so a repeat of these literals skips
      // even the substitution. Epochs were just validated by the probe.
      // Substitution swaps constants only, so the estimate provenance is
      // the family plan's.
      CachedPlan entry;
      entry.plan = result.plan;
      entry.bindings = generic->bindings;
      entry.stats_epochs = generic->stats_epochs;
      entry.text_hash = fill.exact.text_hash;
      entry.family_hash = family->family_hash;
      entry.plan_fingerprint = result.plan_fingerprint;
      entry.stats_tier = generic->stats_tier;
      entry.algorithm = optimizer::AlgorithmName(options_.algorithm);
      entry.est_cost = generic->est_cost;
      entry.optimize_seconds = SecondsSince(plan_start);
      state_->plan_cache.Insert(fill.exact, std::move(entry));
      return RunPlan(std::move(result), generic->stats_tier, plan_start);
    }
  }

  // Cold path: full parameterized compile, filling both cache levels.
  PPP_ASSIGN_OR_RETURN(
      const obs::StatsTier stats_tier,
      CompileAndFill(family->family_text, &bound, use_cache ? &fill : nullptr,
                     plan_start, &ctx_, &result, /*trace=*/nullptr));
  return RunPlan(std::move(result), stats_tier, plan_start);
}

void Session::UpdateRow(const QueryResult& result, bool planned) {
  std::lock_guard<std::mutex> lock(state_->mu);
  auto it = state_->sessions.find(id_);
  if (it == state_->sessions.end()) return;
  SessionRow& row = it->second;
  row.queries += 1;
  if (result.plan_cache_hit) {
    row.plan_cache_hits += 1;
  } else if (planned) {
    row.plan_cache_misses += 1;
  }
  row.rows_returned += result.rows.size();
  row.plan_cache =
      options_.use_plan_cache && state_->plan_cache_enabled;
}

}  // namespace ppp::serve

// A minimal interactive shell over the engine: type SELECT statements
// against the benchmark database, get the optimized plan (EXPLAIN) and the
// first rows, with the measured I/O + invocation bill. Reads from stdin;
// pipe a script in, or run interactively. Statements:
//   SELECT ...                 run the query
//   EXPLAIN SELECT ...         show the optimized plan, don't run
//   EXPLAIN ANALYZE SELECT ... run and show the plan with per-operator
//                              actual rows, timings, I/O, and cache stats
//   ANALYZE [t1 [, t2]...]     collect sampled statistics (histograms,
//                              MCVs, NDV sketches); no list = all tables
// Meta-commands:
//   \tables            list tables
//   \analyze [t...]    same as the ANALYZE statement
//   \functions         list registered functions
//   \algorithm NAME    switch placement algorithm (pushdown, pullup,
//                      pullrank, migration, ldl, exhaustive)
//   \explain on|off    toggle plan printing
//   \trace on|off      dump the optimizer's decision trace after each query
//   \metrics [reset]   print (or reset) the global metrics registry
//   \spans on|off|clear|dump [FILE]
//                      lifecycle span tracing; dump writes Chrome
//                      trace-event JSON (default trace.json) for Perfetto
//   \log [N|on|off|clear]
//                      tail of the query log (default 10 rows; also
//                      SQL-queryable as ppp_query_log — see \tables);
//                      flags column: C = plan changed, R = regressed
//   \plans [clear]     plan-fingerprint history per normalized query:
//                      executions, mean/p95 wall, invocations, max q-error,
//                      CHANGED/REGRESSED flags (ppp_plan_history in SQL)
//   \audit [N]         per-operator cardinality audit of recent queries:
//                      est vs actual rows and q-error per plan node
//                      (default 20 rows; ppp_operator_audit in SQL)
//   \profile [reset]   per-function runtime profile (observed cost and
//                      distinct-value selectivity)
//   \calibrate [off]   re-run placement of the last query with observed
//                      costs/selectivities; report placement regret and
//                      keep feedback on for later queries ('off' reverts)
//   \set workers N     parallel workers for expensive predicates (1 = off)
//   \set batch N       rows per executor batch
//   \set transfer on|off
//                      Bloom-filter predicate transfer: hash joins publish
//                      a filter over the build-side join key and the
//                      probe-side scan prunes doomed tuples before any
//                      expensive predicate runs
//   \set stats on|off  use collected ANALYZE statistics in planning
//                      (provenance ladder: feedback > stats > declared)
//   \set vector on|off columnar batches + vectorized cheap-predicate
//                      kernels (selection vectors; expensive UDFs evaluate
//                      late, against survivors only). Default on.
//   \set plancache on|off
//                      serving-layer plan cache for this session: repeat
//                      SELECTs skip parse/bind/optimize until ANALYZE (or a
//                      plan-history regression) invalidates the entry
//   \session [new|N]   list sessions + plan-cache counters, open a new
//                      session, or switch to session N (each session has
//                      its own knobs; the plan cache is shared)
//   \quit
// \algorithm, \calibrate and \set change the current session's knobs
// only; a new session starts from the defaults. SELECT, PREPARE/EXECUTE
// and EXPLAIN [ANALYZE] all run under the current session's knobs.

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>

#include "common/string_util.h"
#include "exec/executor.h"
#include "obs/metrics.h"
#include "obs/plan_audit.h"
#include "obs/plan_history.h"
#include "obs/profiler.h"
#include "obs/query_log.h"
#include "obs/span.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "optimizer/optimizer.h"
#include "parser/parser.h"
#include "serve/session.h"
#include "stats/collector.h"
#include "subquery/rewrite.h"
#include "workload/database.h"
#include "workload/measurement.h"
#include "workload/schema_gen.h"

using namespace ppp;

namespace {

/// True when the first whole word of `sql` is `word` (case-insensitive).
bool FirstWordIs(const std::string& sql, const std::string& word) {
  size_t i = 0;
  while (i < sql.size() && std::isspace(static_cast<unsigned char>(sql[i]))) {
    ++i;
  }
  size_t j = i;
  while (j < sql.size() &&
         (std::isalnum(static_cast<unsigned char>(sql[j])) || sql[j] == '_')) {
    ++j;
  }
  return common::ToLower(sql.substr(i, j - i)) == common::ToLower(word);
}

/// ANALYZE the named tables (all tables when empty) and print a summary
/// of each collected distribution.
common::Status RunAnalyze(workload::Database* db,
                          const std::vector<std::string>& tables) {
  const stats::AnalyzeOptions options = stats::AnalyzeOptions::Default();
  const std::vector<std::string> names =
      tables.empty() ? db->catalog().TableNames() : tables;
  for (const std::string& name : names) {
    PPP_ASSIGN_OR_RETURN(catalog::Table * table,
                         db->catalog().GetTable(name));
    PPP_RETURN_IF_ERROR(stats::AnalyzeTable(table, options));
    std::printf("analyzed %s: %s", name.c_str(),
                table->collected_stats()->ToString().c_str());
  }
  return common::Status::OK();
}

bool ParseAlgorithm(const std::string& name, optimizer::Algorithm* out) {
  const std::string lower = common::ToLower(name);
  if (lower == "pushdown") *out = optimizer::Algorithm::kPushDown;
  else if (lower == "pullup") *out = optimizer::Algorithm::kPullUp;
  else if (lower == "pullrank") *out = optimizer::Algorithm::kPullRank;
  else if (lower == "migration") *out = optimizer::Algorithm::kMigration;
  else if (lower == "ldl") *out = optimizer::Algorithm::kLdl;
  else if (lower == "exhaustive") *out = optimizer::Algorithm::kExhaustive;
  else return false;
  return true;
}

}  // namespace

int main() {
  workload::Database db;
  workload::BenchmarkConfig config;
  config.scale = 200;
  config.table_numbers = {1, 3, 6, 7, 9, 10};
  if (!workload::LoadBenchmarkDatabase(&db, config).ok() ||
      !workload::RegisterBenchmarkFunctions(&db).ok()) {
    std::fprintf(stderr, "failed to load benchmark database\n");
    return 1;
  }

  bool explain = true;
  bool tracing = false;
  std::string last_body;  // Last SELECT body, parsed on demand by \calibrate.

  // The serving layer: every statement runs through a session, so repeated
  // SELECTs hit the shared plan cache while EXPLAIN variants plan fresh.
  // Every knob — algorithm, cost and executor params — lives in the
  // current session's options().
  serve::SessionManager manager(&db);
  std::map<uint64_t, std::unique_ptr<serve::Session>> sessions;
  serve::Session* session = nullptr;
  {
    auto s = manager.CreateSession();
    session = s.get();
    sessions[s->id()] = std::move(s);
  }

  std::printf("ppp shell — benchmark database at scale %lld. Try:\n",
              static_cast<long long>(config.scale));
  std::printf("  SELECT * FROM t3, t10 WHERE t3.ua = t10.ua1 AND "
              "costly100(t10.ua);\n");
  std::printf("  SELECT t3.a FROM t3 WHERE t3.u10 IN (SELECT u10 FROM t6 "
              "WHERE t6.a10 = t3.a10);\n\\quit to exit.\n");

  std::string line;
  std::string statement;
  while (true) {
    // The prompt names the active session so multi-session exploration
    // (\session new / \session N) always shows where a query will run.
    if (statement.empty()) {
      std::printf("ppp[s%llu]> ",
                  static_cast<unsigned long long>(session->id()));
    } else {
      std::printf("...> ");
    }
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;

    if (statement.empty() && !line.empty() && line[0] == '\\') {
      std::istringstream cmd(line.substr(1));
      std::string word;
      cmd >> word;
      if (word == "quit" || word == "q") break;
      if (word == "tables") {
        for (const std::string& name : db.catalog().TableNames()) {
          auto table = db.catalog().GetTable(name);
          std::printf("  %-6s %8lld tuples, %lld pages\n", name.c_str(),
                      static_cast<long long>((*table)->NumTuples()),
                      static_cast<long long>((*table)->NumPages()));
        }
        for (const std::string& name : db.catalog().SystemTableNames()) {
          auto table = db.catalog().GetTable(name);
          std::printf("  %-18s %8lld rows (system, read-only)\n",
                      name.c_str(),
                      static_cast<long long>((*table)->NumTuples()));
        }
        continue;
      }
      if (word == "analyze") {
        std::vector<std::string> tables;
        std::string t;
        while (cmd >> t) tables.push_back(t);
        const common::Status status = RunAnalyze(&db, tables);
        if (!status.ok()) {
          std::printf("error: %s\n", status.ToString().c_str());
        }
        continue;
      }
      if (word == "functions") {
        for (const std::string& name : db.catalog().functions().Names()) {
          const catalog::FunctionDef* def =
              *db.catalog().functions().Lookup(name);
          std::printf("  %-14s cost=%-8.4g selectivity=%.3g\n",
                      name.c_str(), def->cost_per_call, def->selectivity);
        }
        continue;
      }
      if (word == "algorithm") {
        std::string name;
        cmd >> name;
        optimizer::Algorithm& algorithm = session->options().algorithm;
        if (!ParseAlgorithm(name, &algorithm)) {
          std::printf("unknown algorithm '%s'\n", name.c_str());
        } else {
          std::printf("using %s\n", optimizer::AlgorithmName(algorithm));
        }
        continue;
      }
      if (word == "explain") {
        std::string mode;
        cmd >> mode;
        explain = (mode != "off");
        std::printf("explain %s\n", explain ? "on" : "off");
        continue;
      }
      if (word == "trace") {
        std::string mode;
        cmd >> mode;
        tracing = (mode != "off");
        std::printf("trace %s\n", tracing ? "on" : "off");
        continue;
      }
      if (word == "metrics") {
        std::string mode;
        cmd >> mode;
        if (mode == "reset") {
          obs::MetricsRegistry::Global().ResetAll();
          std::printf("metrics reset\n");
        } else {
          std::printf("%s",
                      obs::MetricsRegistry::Global().Snapshot().ToText()
                          .c_str());
        }
        continue;
      }
      if (word == "spans") {
        std::string mode;
        cmd >> mode;
        obs::SpanTracer& tracer = obs::SpanTracer::Global();
        if (mode == "off") {
          tracer.set_enabled(false);
          std::printf("spans off (%zu buffered)\n", tracer.size());
        } else if (mode == "clear") {
          tracer.Clear();
          std::printf("spans cleared\n");
        } else if (mode == "dump") {
          std::string file;
          cmd >> file;
          if (file.empty()) file = "trace.json";
          const common::Status status = obs::WriteChromeTrace(
              file, tracer.Snapshot(), tracer.dropped());
          if (!status.ok()) {
            std::printf("error: %s\n", status.ToString().c_str());
          } else {
            std::printf("wrote %zu span(s) to %s (%llu dropped)\n",
                        tracer.size(), file.c_str(),
                        static_cast<unsigned long long>(tracer.dropped()));
          }
        } else {
          tracer.set_enabled(true);
          std::printf("spans on\n");
        }
        continue;
      }
      if (word == "log") {
        std::string mode;
        cmd >> mode;
        obs::QueryLog& log = obs::QueryLog::Global();
        if (mode == "on") {
          log.set_enabled(true);
          std::printf("query log on\n");
        } else if (mode == "off") {
          log.set_enabled(false);
          std::printf("query log off (%zu retained)\n", log.size());
        } else if (mode == "clear") {
          log.Clear();
          std::printf("query log cleared\n");
        } else {
          size_t n = 10;
          if (!mode.empty()) {
            const long long parsed = std::atoll(mode.c_str());
            if (parsed <= 0) {
              std::printf("usage: \\log [N|on|off|clear]\n");
              continue;
            }
            n = static_cast<size_t>(parsed);
          }
          std::printf("  %5s %-10s %10s %9s %8s %6s %5s %5s %-8s %-5s\n",
                      "id", "algorithm", "wall_ms", "rows_out", "udf",
                      "cache", "prune", "drift", "tier", "flags");
          for (const obs::QueryLogRecord& r : log.Tail(n)) {
            std::string flags;
            if (r.plan_changed) flags += 'C';
            if (r.plan_regressed) flags += 'R';
            std::printf("  %5llu %-10s %10.3f %9llu %8llu %6llu %5llu "
                        "%5llu %-8s %-5s\n",
                        static_cast<unsigned long long>(r.query_id),
                        r.algorithm.c_str(), r.wall_seconds * 1e3,
                        static_cast<unsigned long long>(r.rows_out),
                        static_cast<unsigned long long>(r.udf_invocations),
                        static_cast<unsigned long long>(r.cache_hits),
                        static_cast<unsigned long long>(r.transfer_pruned),
                        static_cast<unsigned long long>(r.drift_flags),
                        obs::StatsTierName(r.stats_tier), flags.c_str());
          }
          std::printf("  %llu logged, %llu evicted; \"SELECT ... FROM "
                      "ppp_query_log\" for the full view\n",
                      static_cast<unsigned long long>(log.total()),
                      static_cast<unsigned long long>(log.evicted()));
        }
        continue;
      }
      if (word == "plans") {
        std::string mode;
        cmd >> mode;
        obs::PlanHistory& history = obs::PlanHistory::Global();
        if (mode == "clear") {
          history.Clear();
          std::printf("plan history cleared\n");
          continue;
        }
        std::printf("  %-16s %-16s %5s %9s %9s %9s %7s %s\n", "text_hash",
                    "fingerprint", "execs", "mean_ms", "p95_ms", "udf",
                    "max_q", "flags");
        for (const obs::PlanHistoryEntry& e : history.Snapshot()) {
          std::string flags;
          if (e.plan_changed) flags += "CHANGED ";
          if (e.regressed) flags += "REGRESSED";
          std::printf("  %016llx %016llx %5llu %9.3f %9.3f %9llu %7.3g %s\n",
                      static_cast<unsigned long long>(e.text_hash),
                      static_cast<unsigned long long>(e.plan_fingerprint),
                      static_cast<unsigned long long>(e.executions),
                      e.wall_mean * 1e3, e.wall_p95 * 1e3,
                      static_cast<unsigned long long>(e.total_invocations),
                      e.max_qerror, flags.c_str());
        }
        std::printf("  %zu plan(s); %llu change(s), %llu regression(s); "
                    "\"SELECT ... FROM ppp_plan_history\" for the full "
                    "view\n",
                    history.size(),
                    static_cast<unsigned long long>(history.changed_total()),
                    static_cast<unsigned long long>(
                        history.regressed_total()));
        continue;
      }
      if (word == "audit") {
        std::string mode;
        cmd >> mode;
        size_t n = 20;
        if (!mode.empty()) {
          const long long parsed = std::atoll(mode.c_str());
          if (parsed <= 0) {
            std::printf("usage: \\audit [N]\n");
            continue;
          }
          n = static_cast<size_t>(parsed);
        }
        obs::PlanAudit& audit = obs::PlanAudit::Global();
        std::printf("  %5s %-8s %-32s %10s %10s %7s %9s %8s\n", "id",
                    "path", "op", "est", "act", "q", "ms", "udf");
        for (const obs::OperatorAuditRecord& r : audit.Tail(n)) {
          std::printf("  %5llu %-8s %-32.32s %10.4g %10llu %7.3g %9.3f "
                      "%8llu\n",
                      static_cast<unsigned long long>(r.query_id),
                      r.path.c_str(), r.op.c_str(), r.est_rows,
                      static_cast<unsigned long long>(r.actual_rows),
                      r.qerror, r.inclusive_seconds * 1e3,
                      static_cast<unsigned long long>(r.udf_invocations));
        }
        std::printf("  %llu audited, %llu evicted; \"SELECT ... FROM "
                    "ppp_operator_audit\" for the full view\n",
                    static_cast<unsigned long long>(audit.total()),
                    static_cast<unsigned long long>(audit.evicted()));
        continue;
      }
      if (word == "profile") {
        std::string mode;
        cmd >> mode;
        if (mode == "reset") {
          obs::PredicateProfiler::Global().Reset();
          std::printf("profile reset\n");
        } else {
          std::printf("%s",
                      obs::PredicateProfiler::Global().ReportText().c_str());
        }
        continue;
      }
      if (word == "calibrate") {
        std::string mode;
        cmd >> mode;
        serve::SessionOptions& options = session->options();
        if (mode == "off") {
          options.cost_params.use_feedback = false;
          obs::PredicateFeedbackStore::Global().Clear();
          std::printf("feedback off (store cleared)\n");
          continue;
        }
        if (last_body.empty()) {
          std::printf("no query yet: run one first, then \\calibrate\n");
          continue;
        }
        auto last_spec = subquery::ParseBindRewrite(last_body, &db.catalog());
        if (!last_spec.ok()) {
          std::printf("error: %s\n", last_spec.status().ToString().c_str());
          continue;
        }
        auto report = workload::Calibrate(&db.catalog(), *last_spec,
                                          options.algorithm,
                                          options.cost_params);
        if (!report.ok()) {
          std::printf("error: %s\n", report.status().ToString().c_str());
          continue;
        }
        std::printf("%s\n", report->Summary().c_str());
        if (report->placement_changed) {
          std::printf("plan before:\n%splan after:\n%s",
                      report->plan_before.c_str(),
                      report->plan_after.c_str());
        }
        options.cost_params.use_feedback = true;
        std::printf("feedback on: subsequent queries use observed "
                    "costs/selectivities\n");
        continue;
      }
      if (word == "session") {
        std::string arg;
        cmd >> arg;
        if (arg == "new") {
          auto s = manager.CreateSession();
          session = s.get();
          const uint64_t id = s->id();
          sessions[id] = std::move(s);
          std::printf("session %llu (now current)\n",
                      static_cast<unsigned long long>(id));
        } else if (!arg.empty()) {
          const long long id = std::atoll(arg.c_str());
          auto it = sessions.find(static_cast<uint64_t>(id));
          if (id <= 0 || it == sessions.end()) {
            std::printf("no open session %s\n", arg.c_str());
          } else {
            session = it->second.get();
            std::printf("session %lld\n", id);
          }
        } else {
          std::printf("sessions (current: s%llu)\n",
                      static_cast<unsigned long long>(session->id()));
          std::printf("  %3s %-7s %-9s %7s %5s %6s %9s\n", "id", "state",
                      "plancache", "queries", "hits", "misses", "rows");
          for (const serve::SessionRow& r : manager.SessionRows()) {
            std::printf("  %3llu%c %-6s %-9s %7llu %5llu %6llu %9llu\n",
                        static_cast<unsigned long long>(r.session_id),
                        session != nullptr && session->id() == r.session_id
                            ? '*'
                            : ' ',
                        r.active ? "open" : "closed",
                        r.plan_cache ? "on" : "off",
                        static_cast<unsigned long long>(r.queries),
                        static_cast<unsigned long long>(r.plan_cache_hits),
                        static_cast<unsigned long long>(r.plan_cache_misses),
                        static_cast<unsigned long long>(r.rows_returned));
          }
          const serve::PlanCache& cache = manager.plan_cache();
          std::printf("  plan cache: %zu entries, %zu bytes; hits=%llu "
                      "misses=%llu invalidations=%llu evictions=%llu\n",
                      cache.entries(), cache.approx_bytes(),
                      static_cast<unsigned long long>(cache.hits()),
                      static_cast<unsigned long long>(cache.misses()),
                      static_cast<unsigned long long>(cache.invalidations()),
                      static_cast<unsigned long long>(cache.evictions()));
        }
        continue;
      }
      if (word == "set") {
        std::string knob;
        std::string value_word;
        cmd >> knob >> value_word;
        const long long value = std::atoll(value_word.c_str());
        cost::CostParams& cost_params = session->options().cost_params;
        exec::ExecParams& exec_params = session->options().exec_params;
        if (knob == "transfer" &&
            (value_word == "on" || value_word == "off")) {
          // One field: the cost model (plan choice) and the executor both
          // read it.
          cost_params.predicate_transfer = (value_word == "on");
          std::printf("transfer %s\n", value_word.c_str());
        } else if (knob == "stats" &&
                   (value_word == "on" || value_word == "off")) {
          cost_params.use_collected_stats = (value_word == "on");
          std::printf("stats %s\n", value_word.c_str());
        } else if (knob == "workers" && value >= 1) {
          cost_params.parallel_workers = static_cast<int>(value);
          std::printf("workers %lld\n", value);
        } else if (knob == "batch" && value >= 1) {
          exec_params.batch_size = static_cast<size_t>(value);
          std::printf("batch %lld\n", value);
        } else if (knob == "vector" &&
                   (value_word == "on" || value_word == "off")) {
          // Columnar batches + vectorized cheap-predicate kernels: an
          // executor knob only, no plan depends on it.
          exec_params.vectorized = (value_word == "on");
          std::printf("vector %s\n", value_word.c_str());
        } else if (knob == "plancache" &&
                   (value_word == "on" || value_word == "off")) {
          session->set_plan_cache_enabled(value_word == "on");
          if (value_word == "on" && !manager.plan_cache_enabled()) {
            std::printf("plancache on (but disabled engine-wide by "
                        "PPP_PLAN_CACHE=0)\n");
          } else {
            std::printf("plancache %s\n", value_word.c_str());
          }
        } else {
          std::printf("usage: \\set workers N | \\set batch N  (N >= 1) | "
                      "\\set transfer on|off | \\set stats on|off | "
                      "\\set vector on|off | \\set plancache on|off\n");
        }
        continue;
      }
      std::printf("unknown command \\%s\n", word.c_str());
      continue;
    }

    statement += line;
    if (statement.find(';') == std::string::npos) {
      statement += ' ';
      continue;  // Accumulate until ';'.
    }
    const std::string sql = statement;
    statement.clear();

    // ANALYZE statements have their own tiny grammar; everything else is a
    // SELECT pipeline.
    if (FirstWordIs(sql, "ANALYZE")) {
      auto stmt = parser::ParseStatement(sql);
      if (!stmt.ok()) {
        std::printf("error: %s\n", stmt.status().ToString().c_str());
        continue;
      }
      const common::Status status = RunAnalyze(&db, stmt->analyze_tables);
      if (!status.ok()) std::printf("error: %s\n", status.ToString().c_str());
      continue;
    }

    // SELECT, PREPARE/EXECUTE and EXPLAIN [ANALYZE] all run through the
    // serving session, which owns the statement-name registry and the plan
    // cache. Repeats of a SELECT or EXECUTE (same knobs, same statistics)
    // skip parse/bind/optimize; EXPLAIN variants show a fresh optimization
    // and return the plan's lines as rows.
    std::string body;
    const parser::StatementKind kind = parser::StripExplain(sql, &body);
    const bool prepared =
        FirstWordIs(sql, "PREPARE") || FirstWordIs(sql, "EXECUTE");
    auto r = session->Execute(sql);
    if (!r.ok()) {
      std::printf("error: %s\n", r.status().ToString().c_str());
      continue;
    }
    if (!r->prepared_name.empty()) {
      std::printf("prepared %s (family %016llx)\n", r->prepared_name.c_str(),
                  static_cast<unsigned long long>(r->family_hash));
      continue;
    }
    if (!prepared) last_body = body;
    if (kind == parser::StatementKind::kSelect) {
      if (explain && !prepared && r->plan != nullptr) {
        std::printf("%s", r->plan->ToString().c_str());
      }
      std::printf("%llu rows; plan cache %s%s; optimize %.3f ms, execute "
                  "%.3f ms\n",
                  static_cast<unsigned long long>(r->rows.size()),
                  r->plan_cache_hit ? "HIT" : "miss",
                  r->generic_plan ? " (generic)" : "",
                  r->optimize_seconds * 1e3, r->execute_seconds * 1e3);
      continue;
    }

    for (const types::Tuple& line : r->rows) {
      std::printf("%s\n", line.Get(0).AsString().c_str());
    }
    if (tracing && !r->trace.empty()) {
      std::printf("optimizer trace:\n%s", r->trace.ToText().c_str());
      std::printf("dp stats: %s\n", r->dp_stats.ToString().c_str());
    }
    if (kind == parser::StatementKind::kExplainAnalyze) {
      double io = 0.0;
      double udf = 0.0;
      const double charged =
          workload::ChargedTime(r->stats, db.catalog().functions(),
                                session->options().cost_params, &io, &udf);
      std::printf("%llu rows; charged time %.6g (io %.6g + udf %.6g)\n",
                  static_cast<unsigned long long>(r->stats.output_rows),
                  charged, io, udf);
    }
  }
  std::printf("\nbye\n");
  return 0;
}

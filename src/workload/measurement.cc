#include "workload/measurement.h"

#include <algorithm>
#include <fstream>

#include "common/string_util.h"
#include "cost/cost_model.h"
#include "obs/profiler.h"
#include "optimizer/optimizer.h"
#include "parser/parser.h"

namespace ppp::workload {

using common::JsonEscape;

std::string Measurement::Summary() const {
  std::string out = common::StringPrintf(
      "%-20s est=%-12.6g measured=%-12.6g (io=%.6g udf=%.6g) rows=%llu",
      algorithm.c_str(), est_cost, charged_time, charged_io, charged_udf,
      static_cast<unsigned long long>(output_rows));
  std::vector<std::string> invs;
  for (const auto& [name, count] : invocations) {
    invs.push_back(name + "×" + std::to_string(count));
  }
  std::sort(invs.begin(), invs.end());
  if (!invs.empty()) out += "  [" + common::Join(invs, " ") + "]";
  return out;
}

std::string Measurement::ToJson() const {
  std::string out = "{";
  out += "\"algorithm\": \"" + JsonEscape(algorithm) + "\"";
  out += common::StringPrintf(", \"est_cost\": %.17g", est_cost);
  out += common::StringPrintf(", \"charged_time\": %.17g", charged_time);
  out += common::StringPrintf(", \"charged_io\": %.17g", charged_io);
  out += common::StringPrintf(", \"charged_udf\": %.17g", charged_udf);
  out += ", \"output_rows\": " + std::to_string(output_rows);
  out += common::StringPrintf(", \"optimize_seconds\": %.17g",
                              optimize_seconds);
  out += ", \"plans_retained\": " + std::to_string(plans_retained);
  out += common::StringPrintf(", \"wall_seconds\": %.17g", wall_seconds);
  out += ", \"io\": {\"sequential_reads\": " +
         std::to_string(io.sequential_reads) +
         ", \"random_reads\": " + std::to_string(io.random_reads) +
         ", \"writes\": " + std::to_string(io.writes) +
         ", \"buffer_hits\": " + std::to_string(io.buffer_hits) + "}";
  out += ", \"dp_stats\": {\"subplans_generated\": " +
         std::to_string(dp_stats.subplans_generated) +
         ", \"subplans_pruned\": " + std::to_string(dp_stats.subplans_pruned) +
         ", \"subplans_retained\": " +
         std::to_string(dp_stats.subplans_retained) +
         ", \"unpruneable_retained\": " +
         std::to_string(dp_stats.unpruneable_retained) +
         ", \"order_keeps\": " + std::to_string(dp_stats.order_keeps) + "}";
  out += ", \"invocations\": {";
  std::vector<std::string> names;
  for (const auto& [name, count] : invocations) names.push_back(name);
  std::sort(names.begin(), names.end());
  bool first = true;
  for (const std::string& name : names) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + JsonEscape(name) +
           "\": " + std::to_string(invocations.at(name));
  }
  out += "}";
  out += ", \"plan\": \"" + JsonEscape(plan_text) + "\"";
  if (!explain_text.empty()) {
    out += ", \"explain\": \"" + JsonEscape(explain_text) + "\"";
  }
  out += "}";
  return out;
}

common::Result<std::string> WriteBenchJson(
    const std::string& name, const std::vector<Measurement>& measurements) {
  const std::string path = "BENCH_" + name + ".json";
  std::ofstream out(path);
  if (!out.is_open()) {
    return common::Status::Internal("cannot open " + path + " for writing");
  }
  out << "{\"bench\": \"" << JsonEscape(name) << "\", \"measurements\": [\n";
  for (size_t i = 0; i < measurements.size(); ++i) {
    out << "  " << measurements[i].ToJson();
    if (i + 1 < measurements.size()) out << ",";
    out << "\n";
  }
  out << "]}\n";
  out.close();
  if (out.fail()) {
    return common::Status::Internal("failed writing " + path);
  }
  return path;
}

double ChargedTime(const exec::ExecStats& stats,
                   const catalog::FunctionRegistry& functions,
                   const cost::CostParams& params, double* io_part,
                   double* udf_part) {
  const double io =
      static_cast<double>(stats.io.sequential_reads) * params.seq_page_io +
      static_cast<double>(stats.io.random_reads) * params.rand_page_io +
      static_cast<double>(stats.io.writes) * params.seq_page_io;
  double udf = 0.0;
  for (const auto& [name, count] : stats.invocations) {
    auto def = functions.Lookup(name);
    if (def.ok() && (*def)->charge_invocations) {
      udf += static_cast<double>(count) * (*def)->cost_per_call *
             params.rand_page_io;
    }
  }
  if (io_part != nullptr) *io_part = io;
  if (udf_part != nullptr) *udf_part = udf;
  return io + udf;
}

common::Result<Measurement> Measure(Database* db, serve::Session* session,
                                    const std::string& sql,
                                    obs::OptTrace* trace) {
  std::string rest;
  const parser::StatementKind kind = parser::StripExplain(sql, &rest);
  if (kind == parser::StatementKind::kSelect) {
    return common::Status::InvalidArgument(
        "Measure takes EXPLAIN [ANALYZE] statements");
  }
  if (kind == parser::StatementKind::kExplainAnalyze) {
    // Cold start: nothing of the previous run survives in the pool.
    db->pool().FlushAll();
    db->pool().EvictAll();
  }
  PPP_ASSIGN_OR_RETURN(serve::QueryResult r, session->Execute(sql));

  Measurement m;
  m.algorithm = optimizer::AlgorithmName(session->options().algorithm);
  m.est_cost = r.est_cost;
  m.plans_retained = r.plans_retained;
  m.plan_text = r.plan->ToString();
  m.dp_stats = r.dp_stats;
  m.optimize_seconds = r.optimize_seconds;
  m.wall_seconds = r.execute_seconds;
  m.output_rows = r.stats.output_rows;
  m.invocations = r.stats.invocations;
  m.io = r.stats.io;
  m.charged_time =
      ChargedTime(r.stats, db->catalog().functions(),
                  session->options().cost_params, &m.charged_io,
                  &m.charged_udf);
  for (const types::Tuple& line : r.rows) {
    m.explain_text += line.Get(0).AsString();
    m.explain_text += '\n';
  }
  if (trace != nullptr) *trace = std::move(r.trace);
  return m;
}

std::string CalibrationReport::Summary() const {
  return common::StringPrintf(
      "calibrated %zu function(s); placement %s\n"
      "  est cost (static model, before):   %.6g\n"
      "  obs cost of uncalibrated plan:     %.6g\n"
      "  obs cost of calibrated plan:       %.6g\n"
      "  placement regret:                  %.6g",
      functions_calibrated,
      placement_changed ? "CHANGED" : "unchanged",
      est_cost_before, obs_cost_before, obs_cost_after, regret);
}

namespace {

/// Replaces every predicate annotation in `node`'s subtree with a fresh
/// analysis of the same conjunct by `analyzer` (which consults the feedback
/// store), so a subsequent Annotate costs the tree under observed numbers.
common::Status ReanalyzePredicates(plan::PlanNode* node,
                                   const expr::PredicateAnalyzer& analyzer) {
  if (node->predicate.expr != nullptr) {
    PPP_ASSIGN_OR_RETURN(node->predicate,
                         analyzer.Analyze(node->predicate.expr));
  }
  for (std::unique_ptr<plan::PlanNode>& child : node->children) {
    PPP_RETURN_IF_ERROR(ReanalyzePredicates(child.get(), analyzer));
  }
  return common::Status::OK();
}

}  // namespace

common::Result<CalibrationReport> Calibrate(
    catalog::Catalog* catalog, const plan::QuerySpec& spec,
    optimizer::Algorithm algorithm, const cost::CostParams& cost_params) {
  CalibrationReport report;
  report.functions_calibrated =
      obs::PredicateFeedbackStore::Global().AbsorbProfiles(
          obs::PredicateProfiler::Global());

  // Placement as the static estimates choose it. "Static" only disables
  // feedback: use_collected_stats is inherited from the caller, so after
  // ANALYZE the regret baseline is the stats-informed plan — comparing
  // against a declared-only plan would overstate the regret feedback
  // actually removes.
  cost::CostParams static_params = cost_params;
  static_params.use_feedback = false;
  optimizer::Optimizer static_opt(catalog, static_params);
  PPP_ASSIGN_OR_RETURN(optimizer::OptimizeResult before,
                       static_opt.Optimize(spec, algorithm));

  // ...and as the observed numbers choose it.
  cost::CostParams feedback_params = cost_params;
  feedback_params.use_feedback = true;
  optimizer::Optimizer feedback_opt(catalog, feedback_params);
  PPP_ASSIGN_OR_RETURN(optimizer::OptimizeResult after,
                       feedback_opt.Optimize(spec, algorithm));

  report.est_cost_before = before.est_cost;
  report.obs_cost_after = after.est_cost;
  report.plan_before = before.plan->ToString();
  report.plan_after = after.plan->ToString();
  report.placement_changed =
      before.plan->Signature() != after.plan->Signature();

  // Cost the static placement under the observed model: re-analyze its
  // predicates through the feedback store, then re-annotate. The gap to
  // the calibrated plan is the regret the static estimates cause.
  expr::TableBinding binding;
  for (const plan::TableRef& ref : spec.tables) {
    PPP_ASSIGN_OR_RETURN(catalog::Table * table,
                         catalog->GetTable(ref.table_name));
    binding[ref.alias] = table;
  }
  expr::PredicateAnalyzer analyzer(catalog, binding);
  analyzer.set_feedback(&obs::PredicateFeedbackStore::Global());
  analyzer.set_use_stats(feedback_params.use_collected_stats);
  std::unique_ptr<plan::PlanNode> before_obs = before.plan->Clone();
  PPP_RETURN_IF_ERROR(ReanalyzePredicates(before_obs.get(), analyzer));
  cost::CostModel obs_model(catalog, binding, feedback_params);
  PPP_RETURN_IF_ERROR(obs_model.Annotate(before_obs.get()));
  report.obs_cost_before = before_obs->est_cost;
  report.regret = report.obs_cost_before - report.obs_cost_after;
  return report;
}

std::vector<std::string> CanonicalResults(
    const std::vector<types::Tuple>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const types::Tuple& row : rows) out.push_back(row.Serialize());
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> CanonicalResults(
    const std::vector<types::Tuple>& rows, const types::RowSchema& schema) {
  // Permutation of column indexes into ascending qualified-name order.
  std::vector<size_t> order(schema.NumColumns());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return schema.Column(a).QualifiedName() <
           schema.Column(b).QualifiedName();
  });
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const types::Tuple& row : rows) {
    std::vector<types::Value> values;
    values.reserve(order.size());
    for (const size_t i : order) values.push_back(row.Get(i));
    out.push_back(types::Tuple(std::move(values)).Serialize());
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace ppp::workload

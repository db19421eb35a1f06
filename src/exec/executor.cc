#include "exec/executor.h"

#include <algorithm>
#include <functional>
#include <optional>

#include "common/string_util.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/span.h"
#include "exec/filter_op.h"
#include "exec/join_ops.h"
#include "exec/misc_ops.h"
#include "exec/scan_ops.h"
#include "exec/system_scan.h"

namespace ppp::exec {

namespace {

/// Observed pass rate above which a transferred Bloom filter is killed
/// mid-query (and, with cross-query kill memory, not rebuilt): it prunes
/// too little to pay for its probes.
constexpr double kTransferKillPassRate = 0.95;

common::Result<const catalog::Table*> TableFor(const ExecContext& ctx,
                                               const std::string& alias) {
  auto it = ctx.binding.find(alias);
  if (it == ctx.binding.end() || it->second == nullptr) {
    return common::Status::NotFound("alias " + alias + " is unbound");
  }
  return it->second;
}

common::Result<size_t> ResolveQualified(const types::RowSchema& schema,
                                        const std::string& table,
                                        const std::string& column) {
  const std::optional<size_t> index = schema.FindColumn(table, column);
  if (!index.has_value()) {
    return common::Status::NotFound("column " + table + "." + column +
                                    " not found in [" + schema.ToString() +
                                    "]");
  }
  return *index;
}

/// For a simple equi-join, returns the (table, column) pair that lives on
/// the side whose schema is `schema`.
common::Result<std::pair<std::string, std::string>> JoinKeyFor(
    const expr::PredicateInfo& pred, const types::RowSchema& schema) {
  if (!pred.is_simple_equijoin) {
    return common::Status::InvalidArgument(
        "join method requires a simple equi-join primary, got " +
        (pred.expr != nullptr ? pred.expr->ToString() : std::string("none")));
  }
  if (schema.FindColumn(pred.left_table, pred.left_column).has_value()) {
    return std::make_pair(pred.left_table, pred.left_column);
  }
  if (schema.FindColumn(pred.right_table, pred.right_column).has_value()) {
    return std::make_pair(pred.right_table, pred.right_column);
  }
  return common::Status::InvalidArgument(
      "neither side of " + pred.expr->ToString() +
      " resolves in [" + schema.ToString() + "]");
}

/// Probe-side half of the transfer handoff: attaches every pending
/// transfer whose probe column resolves in this scan's schema. Template
/// because AttachTransfer is a concrete (non-virtual) scan method.
template <typename ScanOpT>
void ClaimTransfers(ExecContext* ctx, const std::string& alias,
                    ScanOpT* scan) {
  for (const auto& transfer : ctx->pending_transfers) {
    if (transfer->claimed() || transfer->probe_alias() != alias) continue;
    const std::optional<size_t> index =
        scan->schema().FindColumn(alias, transfer->probe_column());
    if (!index.has_value()) continue;
    transfer->set_claimed();
    scan->AttachTransfer(transfer, *index);
  }
}

types::TypeId InferType(const expr::Expr& e,
                        const types::RowSchema& schema,
                        const catalog::Catalog& catalog) {
  switch (e.kind) {
    case expr::ExprKind::kColumnRef: {
      const std::optional<size_t> i = schema.FindColumn(e.table, e.column);
      return i.has_value() ? schema.Column(*i).type : types::TypeId::kNull;
    }
    case expr::ExprKind::kConstant:
      return e.constant.type();
    case expr::ExprKind::kComparison:
    case expr::ExprKind::kAnd:
    case expr::ExprKind::kOr:
    case expr::ExprKind::kNot:
    case expr::ExprKind::kInSubquery:
      return types::TypeId::kBool;
    case expr::ExprKind::kArithmetic:
      return types::TypeId::kInt64;
    case expr::ExprKind::kFunctionCall: {
      auto def = catalog.functions().Lookup(e.function_name);
      return def.ok() ? (*def)->return_type : types::TypeId::kNull;
    }
  }
  return types::TypeId::kNull;
}

}  // namespace

obs::StatsTier WeakestStatsTier(const plan::PlanNode& plan) {
  bool any = false;
  auto tier = obs::StatsTier::kFeedback;
  const std::function<void(const plan::PlanNode&)> walk =
      [&](const plan::PlanNode& node) {
        if (node.predicate.expr != nullptr) {
          any = true;
          const auto weakest = static_cast<obs::StatsTier>(
              std::min(static_cast<int>(node.predicate.selectivity_source),
                       static_cast<int>(node.predicate.cost_source)));
          if (static_cast<int>(weakest) < static_cast<int>(tier)) {
            tier = weakest;
          }
        }
        for (const auto& child : node.children) walk(*child);
      };
  walk(plan);
  return any ? tier : obs::StatsTier::kDeclared;
}

common::Result<std::unique_ptr<Operator>> BuildExecutor(
    const plan::PlanNode& plan, ExecContext* ctx) {
  switch (plan.kind) {
    case plan::PlanKind::kSeqScan: {
      PPP_ASSIGN_OR_RETURN(const catalog::Table* table,
                           TableFor(*ctx, plan.alias));
      // System tables keep the kSeqScan plan shape (costing and placement
      // are oblivious to the storage kind) but execute as a materialized
      // snapshot scan.
      if (table->is_system()) {
        auto scan = std::make_unique<SystemTableScanOp>(table, plan.alias);
        ClaimTransfers(ctx, plan.alias, scan.get());
        return std::unique_ptr<Operator>(std::move(scan));
      }
      auto scan = std::make_unique<SeqScanOp>(table, plan.alias);
      ClaimTransfers(ctx, plan.alias, scan.get());
      return std::unique_ptr<Operator>(std::move(scan));
    }
    case plan::PlanKind::kIndexScan: {
      PPP_ASSIGN_OR_RETURN(const catalog::Table* table,
                           TableFor(*ctx, plan.alias));
      std::unique_ptr<IndexScanOp> scan;
      if (plan.index_is_range) {
        scan = std::make_unique<IndexScanOp>(table, plan.alias,
                                             plan.index_column, plan.index_lo,
                                             plan.index_hi);
      } else {
        if (plan.index_key.type() != types::TypeId::kInt64) {
          return common::Status::InvalidArgument(
              "index scan key must be INT64");
        }
        scan = std::make_unique<IndexScanOp>(table, plan.alias,
                                             plan.index_column,
                                             plan.index_key.AsInt64());
      }
      ClaimTransfers(ctx, plan.alias, scan.get());
      return std::unique_ptr<Operator>(std::move(scan));
    }
    case plan::PlanKind::kFilter: {
      PPP_ASSIGN_OR_RETURN(std::unique_ptr<Operator> child,
                           BuildExecutor(*plan.children[0], ctx));
      PPP_ASSIGN_OR_RETURN(
          std::unique_ptr<FilterOp> filter,
          FilterOp::Make(std::move(child), plan.predicate, ctx));
      return std::unique_ptr<Operator>(std::move(filter));
    }
    case plan::PlanKind::kJoin: {
      const plan::PlanNode& inner_plan = *plan.children[1];
      // Predicate transfer: a hash join on a cheap simple equi-join key
      // offers its build side as a Bloom filter to the probe (outer) side.
      // The slot goes onto pending_transfers *before* the outer subtree is
      // built so the scan that owns the probe column can claim it.
      std::shared_ptr<BloomTransfer> transfer;
      if (plan.join_method == plan::JoinMethod::kHash &&
          ctx->cost_params.predicate_transfer &&
          plan.predicate.is_simple_equijoin &&
          !plan.predicate.is_expensive()) {
        const std::vector<std::string> outer_aliases =
            plan.children[0]->CollectAliases();
        const expr::PredicateInfo& pred = plan.predicate;
        const bool left_is_outer =
            std::find(outer_aliases.begin(), outer_aliases.end(),
                      pred.left_table) != outer_aliases.end();
        transfer = std::make_shared<BloomTransfer>(
            left_is_outer ? pred.left_table : pred.right_table,
            left_is_outer ? pred.left_column : pred.right_column,
            left_is_outer ? pred.right_table : pred.left_table,
            left_is_outer ? pred.right_column : pred.left_column);
        transfer->min_probes = ctx->params.transfer_min_probes;
        transfer->kill_pass_rate = kTransferKillPassRate;
        // Cross-query kill memory (serving layer): if past executions of
        // this site killed the filter or measured it passing nearly
        // everything, don't rebuild it just to kill it again.
        if (ctx->params.transfer_cross_query_kill) {
          const std::optional<obs::TransferProfile> history =
              obs::PredicateProfiler::Global().GetTransfer(transfer->Site());
          if (history.has_value() &&
              history->probed >= ctx->params.transfer_min_probes &&
              (history->kills > 0 ||
               history->PassRate() > kTransferKillPassRate)) {
            static obs::Counter* skipped_counter =
                obs::MetricsRegistry::Global().GetCounter(
                    "exec.transfer.skipped_by_history");
            skipped_counter->Increment();
            transfer = nullptr;
          }
        }
        if (transfer != nullptr) ctx->pending_transfers.push_back(transfer);
      }
      PPP_ASSIGN_OR_RETURN(std::unique_ptr<Operator> outer,
                           BuildExecutor(*plan.children[0], ctx));
      if (transfer != nullptr) {
        ctx->pending_transfers.pop_back();
        if (transfer->claimed()) {
          ctx->all_transfers.push_back(transfer);
        } else {
          // No probe-side scan could take it (key column projected away or
          // hidden behind a pipeline breaker): skip the build-side work.
          transfer = nullptr;
        }
      }
      switch (plan.join_method) {
        case plan::JoinMethod::kNestLoop: {
          PPP_ASSIGN_OR_RETURN(std::unique_ptr<Operator> inner,
                               BuildExecutor(inner_plan, ctx));
          std::optional<CachedPredicate> primary;
          if (plan.predicate.expr != nullptr) {
            const types::RowSchema joined = types::RowSchema::Concat(
                outer->schema(), inner->schema());
            PPP_ASSIGN_OR_RETURN(
                CachedPredicate bound,
                CachedPredicate::Bind(plan.predicate, joined, *ctx));
            primary = std::move(bound);
          }
          return std::unique_ptr<Operator>(
              std::make_unique<NestedLoopJoinOp>(
                  std::move(outer), std::move(inner), std::move(primary),
                  ctx));
        }
        case plan::JoinMethod::kIndexNestLoop: {
          if (inner_plan.kind != plan::PlanKind::kSeqScan) {
            return common::Status::InvalidArgument(
                "index nested loops requires a bare scan inner");
          }
          PPP_ASSIGN_OR_RETURN(const catalog::Table* inner_table,
                               TableFor(*ctx, inner_plan.alias));
          const expr::PredicateInfo& pred = plan.predicate;
          if (!pred.is_simple_equijoin) {
            return common::Status::InvalidArgument(
                "index nested loops requires a simple equi-join primary");
          }
          const bool left_is_inner = pred.left_table == inner_plan.alias;
          const std::string& inner_column =
              left_is_inner ? pred.left_column : pred.right_column;
          const std::string& outer_table =
              left_is_inner ? pred.right_table : pred.left_table;
          const std::string& outer_column =
              left_is_inner ? pred.right_column : pred.left_column;
          PPP_ASSIGN_OR_RETURN(
              const size_t outer_key,
              ResolveQualified(outer->schema(), outer_table, outer_column));
          return std::unique_ptr<Operator>(
              std::make_unique<IndexNestedLoopJoinOp>(
                  std::move(outer), inner_table, inner_plan.alias,
                  inner_column, outer_key));
        }
        case plan::JoinMethod::kMerge:
        case plan::JoinMethod::kHash: {
          PPP_ASSIGN_OR_RETURN(std::unique_ptr<Operator> inner,
                               BuildExecutor(inner_plan, ctx));
          PPP_ASSIGN_OR_RETURN(const auto outer_key_col,
                               JoinKeyFor(plan.predicate, outer->schema()));
          PPP_ASSIGN_OR_RETURN(const auto inner_key_col,
                               JoinKeyFor(plan.predicate, inner->schema()));
          PPP_ASSIGN_OR_RETURN(
              const size_t outer_key,
              ResolveQualified(outer->schema(), outer_key_col.first,
                               outer_key_col.second));
          PPP_ASSIGN_OR_RETURN(
              const size_t inner_key,
              ResolveQualified(inner->schema(), inner_key_col.first,
                               inner_key_col.second));
          if (plan.join_method == plan::JoinMethod::kMerge) {
            return std::unique_ptr<Operator>(std::make_unique<MergeJoinOp>(
                std::move(outer), std::move(inner), outer_key, inner_key,
                ctx->params.vectorized));
          }
          return std::unique_ptr<Operator>(std::make_unique<HashJoinOp>(
              std::move(outer), std::move(inner), outer_key, inner_key,
              ctx->params.vectorized, std::move(transfer)));
        }
      }
      return common::Status::Internal("unknown join method");
    }
    case plan::PlanKind::kSort: {
      PPP_ASSIGN_OR_RETURN(std::unique_ptr<Operator> child,
                           BuildExecutor(*plan.children[0], ctx));
      const std::vector<std::string> parts =
          common::Split(plan.sort_column, '.');
      if (parts.size() != 2) {
        return common::Status::InvalidArgument("bad sort column " +
                                               plan.sort_column);
      }
      PPP_ASSIGN_OR_RETURN(
          const size_t key,
          ResolveQualified(child->schema(), parts[0], parts[1]));
      return std::unique_ptr<Operator>(
          std::make_unique<SortOp>(std::move(child), key,
                                   ctx->params.vectorized));
    }
    case plan::PlanKind::kMaterialize: {
      PPP_ASSIGN_OR_RETURN(std::unique_ptr<Operator> child,
                           BuildExecutor(*plan.children[0], ctx));
      return std::unique_ptr<Operator>(
          std::make_unique<MaterializeOp>(std::move(child)));
    }
    case plan::PlanKind::kAggregate: {
      PPP_ASSIGN_OR_RETURN(std::unique_ptr<Operator> child,
                           BuildExecutor(*plan.children[0], ctx));
      std::vector<size_t> keys;
      std::vector<types::ColumnInfo> columns;
      for (const std::string& qualified : plan.group_columns) {
        const std::vector<std::string> parts =
            common::Split(qualified, '.');
        if (parts.size() != 2) {
          return common::Status::InvalidArgument("bad group column " +
                                                 qualified);
        }
        PPP_ASSIGN_OR_RETURN(
            const size_t index,
            ResolveQualified(child->schema(), parts[0], parts[1]));
        keys.push_back(index);
        columns.push_back(child->schema().Column(index));
      }
      std::vector<HashAggregateOp::BoundAggregate> aggs;
      for (const plan::AggregateItem& item : plan.aggregates) {
        HashAggregateOp::BoundAggregate bound;
        bound.op = item.op;
        types::TypeId type = types::TypeId::kInt64;
        if (item.arg != nullptr) {
          PPP_ASSIGN_OR_RETURN(
              std::unique_ptr<expr::BoundExpr> arg,
              expr::BoundExpr::Bind(item.arg, child->schema(),
                                    ctx->catalog->functions()));
          bound.arg = std::move(arg);
          type = InferType(*item.arg, child->schema(), *ctx->catalog);
        }
        switch (item.op) {
          case plan::AggregateItem::Op::kCount:
            type = types::TypeId::kInt64;
            break;
          case plan::AggregateItem::Op::kSum:
          case plan::AggregateItem::Op::kAvg:
            type = types::TypeId::kDouble;
            break;
          default:
            break;  // min/max keep the argument type.
        }
        columns.push_back({"", item.name, type});
        aggs.push_back(std::move(bound));
      }
      return std::unique_ptr<Operator>(std::make_unique<HashAggregateOp>(
          std::move(child), std::move(keys), std::move(aggs),
          types::RowSchema(std::move(columns)), ctx));
    }
    case plan::PlanKind::kProject: {
      PPP_ASSIGN_OR_RETURN(std::unique_ptr<Operator> child,
                           BuildExecutor(*plan.children[0], ctx));
      std::vector<std::shared_ptr<expr::BoundExpr>> bound;
      std::vector<types::ColumnInfo> columns;
      for (size_t i = 0; i < plan.projections.size(); ++i) {
        const expr::ExprPtr& e = plan.projections[i];
        PPP_ASSIGN_OR_RETURN(
            std::unique_ptr<expr::BoundExpr> b,
            expr::BoundExpr::Bind(e, child->schema(),
                                  ctx->catalog->functions()));
        bound.push_back(std::move(b));
        std::string name = i < plan.projection_names.size()
                               ? plan.projection_names[i]
                               : e->ToString();
        columns.push_back(
            {"", std::move(name), InferType(*e, child->schema(),
                                            *ctx->catalog)});
      }
      return std::unique_ptr<Operator>(std::make_unique<ProjectOp>(
          std::move(child), std::move(bound),
          types::RowSchema(std::move(columns)), ctx));
    }
  }
  return common::Status::Internal("unknown plan node kind");
}

common::Result<std::vector<types::Tuple>> ExecutePlan(
    const plan::PlanNode& plan, ExecContext* ctx, ExecStats* stats,
    types::RowSchema* out_schema, std::unique_ptr<Operator>* root_out) {
  const storage::IoStats io_before = storage::ThreadIo();
  // batch_size == 0 is invalid; clamp once here so every consumer (drain
  // loop, SetBatchSize, operators) sees a sane value.
  if (ctx->params.batch_size == 0) ctx->params.batch_size = 1;
  ctx->eval.invocation_counts.clear();
  ctx->pending_transfers.clear();
  ctx->all_transfers.clear();

  std::optional<obs::Span> span;
  if (obs::SpanTracer::Global().enabled()) span.emplace("exec", "execute");

  // Workers beyond the coordinator come from a persistent pool, reused
  // across executions on the same context.
  const size_t workers =
      static_cast<size_t>(std::max(1, ctx->cost_params.parallel_workers));
  if (workers > 1 && (ctx->thread_pool == nullptr ||
                      ctx->thread_pool->num_threads() != workers - 1)) {
    ctx->thread_pool = std::make_shared<common::ThreadPool>(workers - 1);
  }

  // Wire the function-level cache when that mode is selected.
  if (ctx->cost_params.predicate_caching &&
      ctx->params.cache_mode == CacheMode::kFunction) {
    expr::FunctionCache::Options options;
    options.max_entries = ctx->params.cache_max_entries;
    options.shards = ShardedPredicateCache::ShardsFor(
        ctx->cost_params.parallel_workers, ctx->params.cache_max_entries > 0);
    options.adaptive = ctx->params.adaptive_caching;
    options.probe_window = ctx->params.adaptive_probe_window;
    ctx->function_cache_storage.Configure(options);
    ctx->eval.function_cache = &ctx->function_cache_storage;
  } else {
    ctx->eval.function_cache = nullptr;
  }
  // The context's function cache persists across executions; baseline its
  // hit counter so the stats report this execution's hits only.
  const uint64_t fn_cache_hits_before =
      ctx->eval.function_cache != nullptr ? ctx->eval.function_cache->hits()
                                          : 0;

  PPP_ASSIGN_OR_RETURN(std::unique_ptr<Operator> root,
                       BuildExecutor(plan, ctx));
  root->SetBatchSize(ctx->params.batch_size);
  if (out_schema != nullptr) *out_schema = root->schema();
  PPP_RETURN_IF_ERROR(root->Open());
  std::vector<types::Tuple> out;
  TupleBatch batch;
  bool eof = false;
  while (!eof) {
    batch.clear();
    PPP_RETURN_IF_ERROR(
        root->NextBatch(ctx->params.batch_size, &batch, &eof));
    for (types::Tuple& tuple : batch.tuples) {
      out.push_back(std::move(tuple));
    }
  }

  if (span.has_value()) span->AddArg("rows", std::to_string(out.size()));

  // End-of-query transfer accounting: per-site aggregates go to the
  // profiler (the same collector the rank-drift feedback reads), totals to
  // the global counters.
  if (!ctx->all_transfers.empty()) {
    obs::Counter* probed_counter =
        obs::MetricsRegistry::Global().GetCounter("exec.transfer.probed");
    obs::Counter* pruned_counter =
        obs::MetricsRegistry::Global().GetCounter("exec.transfer.pruned");
    obs::Counter* killed_counter =
        obs::MetricsRegistry::Global().GetCounter("exec.transfer.killed");
    for (const auto& transfer : ctx->all_transfers) {
      obs::PredicateProfiler::Global().RecordTransfer(
          transfer->Site(), transfer->probed(), transfer->passed(),
          transfer->killed(), transfer->MeasuredFpr());
      probed_counter->Increment(transfer->probed());
      pruned_counter->Increment(transfer->pruned());
      if (transfer->killed()) killed_counter->Increment();
    }
  }

  if (stats != nullptr) {
    stats->output_rows = out.size();
    stats->io = storage::ThreadIo() - io_before;
    stats->invocations = ctx->eval.invocation_counts;
    stats->function_cache_hits =
        ctx->eval.function_cache != nullptr
            ? ctx->eval.function_cache->hits() - fn_cache_hits_before
            : 0;
  }

  if (root_out != nullptr) *root_out = std::move(root);
  return out;
}

}  // namespace ppp::exec

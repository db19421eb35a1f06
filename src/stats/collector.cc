#include "stats/collector.h"

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "catalog/catalog.h"
#include "catalog/table.h"
#include "common/random.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "stats/histogram.h"
#include "stats/hyperloglog.h"
#include "stats/value_runs.h"

namespace ppp::stats {

namespace {

/// Per-column accumulator for the single-pass scan.
struct ColumnAccumulator {
  uint64_t null_count = 0;
  uint64_t non_null_count = 0;
  bool has_range = false;
  types::Value min_value;
  types::Value max_value;
  HyperLogLog hll;
  std::vector<types::Value> reservoir;
  common::Random rng;

  ColumnAccumulator(int hll_bits, uint64_t seed) : hll(hll_bits), rng(seed) {}

  void Observe(const types::Value& v, size_t reservoir_capacity) {
    if (v.is_null()) {
      ++null_count;
      return;
    }
    ++non_null_count;
    if (!has_range) {
      min_value = v;
      max_value = v;
      has_range = true;
    } else {
      if (v < min_value) min_value = v;
      if (max_value < v) max_value = v;
    }
    hll.AddValue(v);
    // Algorithm R: the first `capacity` values fill the reservoir; value
    // number k > capacity replaces a random slot with probability
    // capacity/k, leaving every value equally likely to be retained.
    if (reservoir.size() < reservoir_capacity) {
      reservoir.push_back(v);
    } else {
      const uint64_t slot = rng.NextUint64(non_null_count);
      if (slot < reservoir_capacity) reservoir[slot] = v;
    }
  }
};

ColumnDistribution Finalize(ColumnAccumulator* acc, const std::string& name,
                            types::TypeId type, uint64_t row_count,
                            const AnalyzeOptions& options) {
  ColumnDistribution d;
  d.column = name;
  d.type = type;
  d.row_count = row_count;
  d.null_count = acc->null_count;
  d.has_range = acc->has_range;
  d.min_value = acc->min_value;
  d.max_value = acc->max_value;
  d.sample_rows = acc->reservoir.size();
  d.ndv = std::min(acc->hll.Estimate(),
                   static_cast<double>(acc->non_null_count));

  const double sample_n = static_cast<double>(acc->reservoir.size());
  if (sample_n == 0.0) return d;
  const double non_null_fraction = 1.0 - d.null_fraction();

  // One sort of the sample; every piece below reads its runs of equal
  // values.
  std::vector<ValueRun> runs = SortedRuns(std::move(acc->reservoir));

  // MCV list: values appearing at least twice in the sample, top-K by
  // sample count. Ties broken by value order (the runs' own order) so the
  // list is deterministic.
  std::vector<size_t> ranked;
  for (size_t r = 0; r < runs.size(); ++r) {
    if (runs[r].count >= 2) ranked.push_back(r);
  }
  const size_t mcv_count = std::min(options.mcv_entries, ranked.size());
  std::partial_sort(ranked.begin(), ranked.begin() + mcv_count, ranked.end(),
                    [&runs](size_t a, size_t b) {
                      if (runs[a].count != runs[b].count) {
                        return runs[a].count > runs[b].count;
                      }
                      return a < b;
                    });
  for (size_t k = 0; k < mcv_count; ++k) {
    ValueRun& run = runs[ranked[k]];
    MostCommonValue mcv;
    mcv.value = std::move(run.value);
    mcv.frequency =
        static_cast<double>(run.count) / sample_n * non_null_fraction;
    d.mcv_total_frequency += mcv.frequency;
    d.mcvs.push_back(std::move(mcv));
    run.count = 0;  // Taken by the MCV list; dropped below.
  }

  // Histogram over the sampled values the MCV list doesn't already cover.
  std::erase_if(runs, [](const ValueRun& run) { return run.count == 0; });
  d.histogram =
      EquiDepthHistogram::BuildSorted(runs, options.histogram_buckets);
  return d;
}

}  // namespace

AnalyzeOptions AnalyzeOptions::Default() {
  AnalyzeOptions options;
  if (const char* env = std::getenv("PPP_STATS_SEED")) {
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(env, &end, 10);
    if (end != env) options.seed = parsed;
  }
  return options;
}

common::Result<std::shared_ptr<const TableStatistics>> BuildTableStatistics(
    const catalog::Table& table, const AnalyzeOptions& options) {
  obs::Span span("stats", "stats.build");
  span.AddArg("table", table.name());

  auto result = std::make_shared<TableStatistics>();
  result->seed = options.seed;

  const std::vector<catalog::ColumnDef>& columns = table.columns();
  std::vector<ColumnAccumulator> accs;
  accs.reserve(columns.size());
  for (size_t i = 0; i < columns.size(); ++i) {
    // Distinct per-column seed streams so adding a column never perturbs
    // another column's sample.
    accs.emplace_back(options.hll_register_bits, options.seed + i * 1000003);
  }

  uint64_t rows = 0;
  storage::HeapFile::Iterator it = table.heap().Scan();
  storage::RecordId rid;
  std::string_view bytes;
  while (it.NextView(&rid, &bytes)) {
    PPP_ASSIGN_OR_RETURN(types::Tuple tuple, types::Tuple::Deserialize(bytes));
    ++rows;
    for (size_t i = 0; i < columns.size(); ++i) {
      accs[i].Observe(tuple.Get(i), options.reservoir_capacity);
    }
  }

  result->row_count = rows;
  result->columns.reserve(columns.size());
  for (size_t i = 0; i < columns.size(); ++i) {
    result->columns.push_back(Finalize(&accs[i], columns[i].name,
                                       columns[i].type, rows, options));
    result->sample_rows =
        std::max(result->sample_rows, result->columns.back().sample_rows);
  }

  obs::MetricsRegistry& metrics = obs::MetricsRegistry::Global();
  metrics.GetCounter("stats.analyze.tables")->Increment();
  metrics.GetCounter("stats.analyze.rows")->Increment(rows);
  return std::shared_ptr<const TableStatistics>(std::move(result));
}

common::Status AnalyzeTable(catalog::Table* table,
                            const AnalyzeOptions& options) {
  if (table->is_system()) {
    // System-table contents change under every query; collected stats
    // would mislead the optimizer. Their estimates stay on the declared
    // tier (row counts still come live from the provider's count hint).
    return common::Status::InvalidArgument(
        "cannot ANALYZE system table " + table->name() +
        ": statistics are pinned to the declared tier");
  }
  PPP_ASSIGN_OR_RETURN(std::shared_ptr<const TableStatistics> stats,
                       BuildTableStatistics(*table, options));
  table->SetCollectedStats(std::move(stats));
  return common::Status::OK();
}

common::Status AnalyzeAll(catalog::Catalog* catalog,
                          const AnalyzeOptions& options) {
  for (const std::string& name : catalog->TableNames()) {
    PPP_ASSIGN_OR_RETURN(catalog::Table * table, catalog->GetTable(name));
    PPP_RETURN_IF_ERROR(AnalyzeTable(table, options));
  }
  return common::Status::OK();
}

}  // namespace ppp::stats

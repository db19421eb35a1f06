#ifndef PPP_WORKLOAD_QUERIES_H_
#define PPP_WORKLOAD_QUERIES_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "plan/query_spec.h"
#include "workload/database.h"
#include "workload/schema_gen.h"

namespace ppp::workload {

/// The paper's experiment queries, reconstructed from the properties §4
/// states about them (the original figures give only performance bars).
/// Constants that encode selectivities are derived from `scale` so each
/// query keeps its shape at any database size. See DESIGN.md §5.
struct BenchmarkQuery {
  std::string id;           // "Q1".."Q5".
  std::string description;  // What phenomenon it demonstrates.
  std::string sql;
};

/// All five queries for a database generated with `config`.
std::vector<BenchmarkQuery> BenchmarkQueries(const BenchmarkConfig& config);

/// The SQL text of query `id` ("Q1".."Q5").
common::Result<std::string> BenchmarkSql(const BenchmarkConfig& config,
                                         const std::string& id);

/// Returns query `id` ("Q1".."Q5"), parsed and bound against `db`.
common::Result<plan::QuerySpec> GetBenchmarkQuery(
    const Database& db, const BenchmarkConfig& config, const std::string& id);

}  // namespace ppp::workload

#endif  // PPP_WORKLOAD_QUERIES_H_

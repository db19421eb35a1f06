#include "workload/queries.h"

#include "common/string_util.h"
#include "parser/binder.h"

namespace ppp::workload {

std::vector<BenchmarkQuery> BenchmarkQueries(const BenchmarkConfig& config) {
  const int64_t scale = config.scale;
  // t10.u10 is uniform over [0, |t10|/10) = [0, scale); `< scale/10` keeps
  // ~10% of t10.
  const int64_t t10_u10_tenth = std::max<int64_t>(1, scale / 10);

  std::vector<BenchmarkQuery> out;
  out.push_back(
      {"Q1",
       "Costly selection under a join that filters its table (join "
       "selectivity over t10 < 1): pullup wins, PushDown loses (Fig. 3). "
       "The costly input t10.ua is unique, so predicate caching cannot "
       "mask the placement difference.",
       "SELECT * FROM t3, t10 "
       "WHERE t3.ua = t10.ua1 AND costly100(t10.ua)"});
  out.push_back(
      {"Q2",
       "Same as Q1 with t9: t9.ua has more values than t10.ua1, so the "
       "join has selectivity 1 over t10 and pullup gains nothing; PullUp's "
       "error is nearly insignificant (Fig. 4).",
       "SELECT * FROM t9, t10 "
       "WHERE t9.ua = t10.ua1 AND costly100(t10.ua)"});
  out.push_back(
      {"Q3",
       "Join that multiplies the costly predicate's stream (selectivity "
       "over t1 > 1): over-eager pullup evaluates the predicate many times "
       "per t1 tuple (Fig. 5). Run with predicate caching disabled — §4.2 "
       "notes caching is exactly what rescues PullUp here (ablation A2).",
       "SELECT * FROM t1, t10 "
       "WHERE t1.ua = t10.u100 AND costly100(t1.ua)"});
  out.push_back(
      {"Q4",
       "Three-way join with ranks decreasing up the t3 stream: PullRank "
       "cannot pull the costly selection over the join group and flips to "
       "a bad join order; Predicate Migration groups the joins (Figs. 6-8).",
       common::StringPrintf(
           "SELECT * FROM t3, t6, t10 "
           "WHERE t3.a10 = t6.a10 AND t6.ua = t10.ua1 "
           "AND t10.u10 < %lld AND costly100(t3.ua)",
           static_cast<long long>(t10_u10_tenth))});
  out.push_back(
      {"Q5",
       "Expensive primary join predicate (match100 connects t7) plus a "
       "costly selection: PullUp places the selection above the expensive "
       "join and explodes its invocation count (Fig. 9).",
       common::StringPrintf(
           "SELECT * FROM t7, t3, t6, t10 "
           "WHERE match100(t7.ua, t3.ua) AND t3.a10 = t6.a10 "
           "AND t6.ua = t10.ua1 AND t10.u10 < %lld "
           "AND selective100(t3.ua)",
           static_cast<long long>(t10_u10_tenth))});
  return out;
}

common::Result<std::string> BenchmarkSql(const BenchmarkConfig& config,
                                         const std::string& id) {
  for (const BenchmarkQuery& q : BenchmarkQueries(config)) {
    if (q.id == id) return q.sql;
  }
  return common::Status::NotFound("no benchmark query named " + id);
}

common::Result<plan::QuerySpec> GetBenchmarkQuery(const Database& db,
                                                  const BenchmarkConfig& config,
                                                  const std::string& id) {
  PPP_ASSIGN_OR_RETURN(const std::string sql, BenchmarkSql(config, id));
  return parser::ParseAndBind(sql, db.catalog());
}

}  // namespace ppp::workload

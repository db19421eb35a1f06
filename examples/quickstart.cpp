// Quickstart: build a tiny database, register an expensive predicate, and
// watch the placement algorithms disagree about where it belongs.
//
// This exercises the full public API surface: Database, schema generation,
// SQL parsing/binding, the six placement algorithms, plan printing, and
// the optimize-then-execute measurement harness.

#include <cstdio>

#include "optimizer/algorithm.h"
#include "serve/session.h"
#include "workload/database.h"
#include "workload/measurement.h"
#include "workload/queries.h"
#include "workload/schema_gen.h"

int main() {
  using namespace ppp;

  // A small instance of the paper's benchmark database: tables t3 and t10
  // with the standard column conventions, 100-byte tuples, B-trees on the
  // a* columns.
  workload::Database db;
  workload::BenchmarkConfig config;
  config.scale = 500;  // t3: 1500 tuples, t10: 5000 tuples.
  config.table_numbers = {3, 10};

  common::Status status = workload::LoadBenchmarkDatabase(&db, config);
  if (!status.ok()) {
    std::fprintf(stderr, "load failed: %s\n", status.ToString().c_str());
    return 1;
  }
  status = workload::RegisterBenchmarkFunctions(&db);
  if (!status.ok()) {
    std::fprintf(stderr, "functions failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }

  // Query 1 of the paper: an expensive selection (100 random I/Os per
  // call) on the big table, under a join that would filter that table.
  const std::string sql =
      "SELECT * FROM t3, t10 "
      "WHERE t3.ua = t10.ua1 AND costly100(t10.ua)";
  std::printf("query: %s\n\n", sql.c_str());

  const optimizer::Algorithm algorithms[] = {
      optimizer::Algorithm::kPushDown,  optimizer::Algorithm::kPullUp,
      optimizer::Algorithm::kPullRank,  optimizer::Algorithm::kMigration,
      optimizer::Algorithm::kLdl,       optimizer::Algorithm::kExhaustive,
  };

  // EXPLAIN ANALYZE on a session measures each placement cold and alone.
  serve::SessionManager manager(&db);
  const std::unique_ptr<serve::Session> session = manager.CreateSession();
  for (const optimizer::Algorithm algorithm : algorithms) {
    session->options().algorithm = algorithm;
    auto m = workload::Measure(&db, session.get(), "EXPLAIN ANALYZE " + sql);
    if (!m.ok()) {
      std::fprintf(stderr, "%s failed: %s\n",
                   optimizer::AlgorithmName(algorithm),
                   m.status().ToString().c_str());
      return 1;
    }
    std::printf("%s\n", m->Summary().c_str());
    std::printf("%s\n", m->plan_text.c_str());
  }
  return 0;
}

// Ablation A5 (§5.1's implementation-space discussion): predicate-level
// caching (Montage) vs function-level caching ([Jhi88]) vs bounded caches
// with FIFO replacement vs the adaptive self-disable. "Such alternatives
// do not form a focus of this paper ... we merely wish to point out that
// it is easy and beneficial to implement a reasonable solution."

#include <cstdio>

#include "bench/bench_util.h"
#include "common/logging.h"

int main() {
  using namespace ppp;
  const int64_t scale = bench::BenchScale();
  auto db = bench::MakeBenchDatabase(scale);
  workload::BenchmarkConfig config;
  config.scale = scale;

  bench::PrintHeader(
      "Ablation A5 — §5.1 cache implementation alternatives (scale " +
      std::to_string(scale) + ")");

  struct Variant {
    const char* name;
    exec::ExecParams params;
    cost::CostParams cost_params;
  };
  std::vector<Variant> variants;
  {
    Variant v{"predicate (Montage)", {}, {}};
    variants.push_back(v);
  }
  {
    Variant v{"function [Jhi88]", {}, {}};
    v.params.cache_mode = exec::CacheMode::kFunction;
    variants.push_back(v);
  }
  {
    Variant v{"predicate, 64 entries", {}, {}};
    v.params.cache_max_entries = 64;
    variants.push_back(v);
  }
  {
    Variant v{"predicate, adaptive", {}, {}};
    v.params.adaptive_caching = true;
    variants.push_back(v);
  }
  {
    Variant v{"no caching", {}, {}};
    v.cost_params.predicate_caching = false;
    variants.push_back(v);
  }

  // The session's default algorithm is PredicateMigration.
  serve::SessionManager manager(db.get());
  const std::unique_ptr<serve::Session> session = manager.CreateSession();
  std::vector<workload::Measurement> rows;
  for (const char* id : {"Q1", "Q3"}) {
    std::printf("\n%s (PredicateMigration plans):\n", id);
    std::printf("%-26s %14s %s\n", "cache variant", "measured",
                "invocations");
    auto sql = workload::BenchmarkSql(config, id);
    PPP_CHECK(sql.ok());
    for (const Variant& variant : variants) {
      session->options().exec_params = variant.params;
      session->options().cost_params = variant.cost_params;
      auto m = workload::Measure(db.get(), session.get(),
                                 "EXPLAIN ANALYZE " + *sql);
      PPP_CHECK(m.ok()) << m.status().ToString();
      std::string invs;
      for (const auto& [name, count] : m->invocations) {
        invs += name + "×" + std::to_string(count) + " ";
      }
      std::printf("%-26s %14.6g %s\n", variant.name, m->charged_time,
                  invs.c_str());
      m->algorithm = std::string(id) + "/" + variant.name;
      rows.push_back(std::move(*m));
    }
  }
  std::printf(
      "\nReading: on Q1 the costly inputs are unique, so every cache\n"
      "variant invokes identically and the adaptive variant additionally\n"
      "frees its (useless) table — the paper's planned optimization. On\n"
      "Q3 the chosen plan evaluates the predicate above the inflating\n"
      "join, where bindings repeat ~10x: any §5.1 cache recovers the 10x,\n"
      "and only disabling caching pays full price.\n");
  bench::MaybeWriteBenchJson("ablation_cacheimpl", rows);
  return 0;
}

// Parallel-execution correctness: the batched executor with the parallel
// expensive-predicate evaluator must be a pure latency optimization. The
// paper's currency is invocation counts × declared cost (§2), so for any
// worker count and batch size the executed plan must produce the same
// result multiset AND the same per-function invocation counters as the
// serial run — parallelism may overlap waits, never change the bill.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "exec/executor.h"
#include "optimizer/optimizer.h"
#include "workload/database.h"
#include "workload/measurement.h"
#include "workload/queries.h"
#include "workload/schema_gen.h"

namespace ppp {
namespace {

using optimizer::Algorithm;

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  common::ThreadPool pool(3);
  EXPECT_EQ(pool.num_threads(), 3u);
  std::vector<std::atomic<int>> ran(100);
  for (auto& r : ran) r.store(0);
  pool.Run(100, [&](size_t i) { ran[i].fetch_add(1); });
  for (const auto& r : ran) EXPECT_EQ(r.load(), 1);
}

TEST(ThreadPoolTest, ReusableAcrossJobs) {
  common::ThreadPool pool(2);
  for (int round = 0; round < 50; ++round) {
    std::atomic<size_t> sum{0};
    pool.Run(8, [&](size_t i) { sum.fetch_add(i + 1); });
    EXPECT_EQ(sum.load(), 36u);
  }
}

TEST(ThreadPoolTest, ZeroThreadsRunsInline) {
  common::ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 0u);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ids(4);
  pool.Run(4, [&](size_t i) { ids[i] = std::this_thread::get_id(); });
  for (const auto& id : ids) EXPECT_EQ(id, caller);
}

TEST(ThreadPoolTest, CallerParticipates) {
  // With many more tasks than pool threads, the calling thread must claim
  // work too (effective parallelism = threads + 1).
  common::ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  std::atomic<int> by_caller{0};
  pool.Run(64, [&](size_t) {
    if (std::this_thread::get_id() == caller) by_caller.fetch_add(1);
    std::this_thread::yield();
  });
  EXPECT_GT(by_caller.load(), 0);
}

/// One executed configuration of a benchmark query: canonical results plus
/// the invocation counters the paper bills from.
struct RunOutcome {
  std::vector<std::string> rows;
  std::map<std::string, uint64_t> invocations;
  /// Sequential plus random page reads; only comparable between runs that
  /// start from a cold pool, so operator== leaves it out.
  uint64_t page_reads = 0;

  bool operator==(const RunOutcome& other) const {
    return rows == other.rows && invocations == other.invocations;
  }
};

/// The executor knobs of one configuration (the plan stays fixed).
struct Knobs {
  exec::ExecParams params;
  cost::CostParams cost_params;
};

class ParallelExecTest : public ::testing::Test {
 protected:
  ParallelExecTest() {
    config_.scale = 150;  // Small: every query runs many configurations.
    config_.table_numbers = {1, 3, 6, 7, 9, 10};
    EXPECT_TRUE(workload::LoadBenchmarkDatabase(&db_, config_).ok());
    EXPECT_TRUE(workload::RegisterBenchmarkFunctions(&db_).ok());
  }

  /// Optimizes `id` once (fixed plan), then executes it under `knobs`.
  /// Keeping the plan fixed isolates the executor: any difference between
  /// configurations is an executor bug, not a placement change. `cold`
  /// empties the buffer pool first, so page reads are comparable.
  RunOutcome Execute(const std::string& id, const Knobs& knobs,
                     Algorithm algorithm = Algorithm::kMigration,
                     bool cold = false) {
    auto spec = workload::GetBenchmarkQuery(db_, config_, id);
    EXPECT_TRUE(spec.ok()) << spec.status();
    optimizer::Optimizer opt(&db_.catalog(), {});
    auto result = opt.Optimize(*spec, algorithm);
    EXPECT_TRUE(result.ok()) << result.status();
    if (cold) {
      db_.pool().FlushAll();
      db_.pool().EvictAll();
    }

    exec::ExecContext ctx;
    ctx.catalog = &db_.catalog();
    ctx.params = knobs.params;
    ctx.cost_params = knobs.cost_params;
    for (const plan::TableRef& ref : spec->tables) {
      ctx.binding[ref.alias] = *db_.catalog().GetTable(ref.table_name);
    }
    exec::ExecStats stats;
    types::RowSchema schema;
    auto rows = exec::ExecutePlan(*result->plan, &ctx, &stats, &schema);
    EXPECT_TRUE(rows.ok()) << rows.status();
    RunOutcome out;
    out.rows = workload::CanonicalResults(*rows, schema);
    out.invocations = {stats.invocations.begin(), stats.invocations.end()};
    out.page_reads = stats.io.sequential_reads + stats.io.random_reads;
    return out;
  }

  Knobs Params(int workers, size_t batch) {
    Knobs knobs;
    knobs.cost_params.parallel_workers = workers;
    knobs.params.batch_size = batch;
    return knobs;
  }

  workload::Database db_;
  workload::BenchmarkConfig config_;
};

TEST_F(ParallelExecTest, SerialBatchSizeNeverChangesAnything) {
  // Single-threaded, batch size is a pure pull-granularity knob
  // (batch_size=1 pulls tuple-at-a-time): from a cold pool every size must
  // give the same rows, invocation counters and total page reads.
  for (const Algorithm algorithm :
       {Algorithm::kMigration, Algorithm::kPushDown}) {
    for (const char* id : {"Q1", "Q2", "Q3", "Q4", "Q5"}) {
      const RunOutcome reference =
          Execute(id, Params(1, 1024), algorithm, /*cold=*/true);
      EXPECT_FALSE(reference.rows.empty()) << id;
      for (const size_t batch : {size_t{1}, size_t{7}}) {
        const RunOutcome run =
            Execute(id, Params(1, batch), algorithm, /*cold=*/true);
        EXPECT_EQ(run, reference) << id << " batch=" << batch;
        EXPECT_EQ(run.page_reads, reference.page_reads)
            << id << " batch=" << batch;
      }
    }
  }
}

TEST_F(ParallelExecTest, ParallelMatchesSerialOnAllBenchmarkQueries) {
  for (const char* id : {"Q1", "Q2", "Q3", "Q4", "Q5"}) {
    const RunOutcome serial = Execute(id, Params(1, 1024));
    EXPECT_EQ(Execute(id, Params(4, 1024)), serial) << id << " workers=4";
    EXPECT_EQ(Execute(id, Params(2, 7)), serial)
        << id << " workers=2 batch=7";
  }
}

TEST_F(ParallelExecTest, DegenerateBatchesStillCorrect) {
  // Batch of one tuple: every parallel fan-out degenerates to a single
  // slice; the plumbing (pending entries, per-worker contexts, merges)
  // must still add up exactly.
  const RunOutcome serial = Execute("Q1", Params(1, 1024));
  EXPECT_EQ(Execute("Q1", Params(4, 1)), serial);
}

TEST_F(ParallelExecTest, ParallelWithoutCachingMatchesSerial) {
  Knobs serial_params = Params(1, 1024);
  serial_params.cost_params.predicate_caching = false;
  Knobs parallel_params = Params(4, 256);
  parallel_params.cost_params.predicate_caching = false;
  EXPECT_EQ(Execute("Q1", parallel_params), Execute("Q1", serial_params));
}

}  // namespace
}  // namespace ppp

#ifndef PPP_OBS_METRICS_H_
#define PPP_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace ppp::obs {

/// Monotonically increasing event count (cache hits, page reads, UDF
/// invocations). Relaxed atomics: the batch executor's worker threads and
/// concurrent sessions bump counters at once, and the paper's measurement
/// methodology is exact event counting, so increments must not be lost.
/// Reads are only taken at snapshot points (no ordering needed with other
/// memory).
///
/// Striped: each thread increments one of kStripes cache-line-padded cells,
/// so threads bumping the same counter on every cache probe don't bounce
/// one cache line between cores. value() and Reset() cover every cell, so
/// the count stays exact.
class Counter {
 public:
  static constexpr size_t kStripes = 8;

  void Increment(uint64_t n = 1) {
    cells_[ThreadStripe()].value.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const {
    uint64_t total = 0;
    for (const Cell& cell : cells_) {
      total += cell.value.load(std::memory_order_relaxed);
    }
    return total;
  }
  void Reset() {
    for (Cell& cell : cells_) cell.value.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Cell {
    std::atomic<uint64_t> value{0};
  };

  /// The calling thread's cell, assigned round-robin on first use.
  static size_t ThreadStripe() {
    static std::atomic<size_t> next{0};
    thread_local const size_t stripe =
        next.fetch_add(1, std::memory_order_relaxed) % kStripes;
    return stripe;
  }

  std::array<Cell, kStripes> cells_;
};

/// Last-write-wins instantaneous value (queue depths, plan-space sizes).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double d) { value_.fetch_add(d, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Sample distribution with exact percentiles up to a cap. Keeps raw
/// samples until kSampleCap, then switches to reservoir sampling
/// (Algorithm R, fixed seed) so a long-running shell's memory stays
/// bounded; count/sum/min/max remain exact scalars throughout, and
/// samples_capped() reports when percentiles became estimates.
/// Mutex-guarded: histograms are observed from worker threads (batch fill,
/// shard waits) but never on per-tuple paths.
class Histogram {
 public:
  /// Raw samples retained for exact percentiles; beyond this the reservoir
  /// keeps a uniform subset of the stream.
  static constexpr size_t kSampleCap = 4096;

  void Observe(double v);

  size_t count() const;
  double sum() const;
  double min() const;
  double max() const;
  /// Percentile by nearest-rank over the retained samples; exact below
  /// kSampleCap, a reservoir estimate past it. `p` in [0, 100]. Returns 0
  /// when empty.
  double Percentile(double p) const;
  /// True once Observe() has been called more than kSampleCap times.
  bool samples_capped() const;

  void Reset();

 private:
  mutable std::mutex mu_;
  std::vector<double> samples_;
  size_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  /// xorshift64 state for reservoir replacement; fixed seed keeps runs
  /// reproducible.
  uint64_t rng_state_ = 0x9e3779b97f4a7c15ull;
};

/// Point-in-time copy of every registered metric, detached from the
/// registry so it can be exported or diffed without racing live updates.
struct MetricsSnapshot {
  struct HistogramSummary {
    size_t count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    /// Percentiles are reservoir estimates, not exact (see Histogram).
    bool samples_capped = false;
  };

  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSummary> histograms;

  /// One `name value` line per metric, sorted by name.
  std::string ToText() const;
  /// {"counters": {...}, "gauges": {...}, "histograms": {...}}.
  std::string ToJson() const;
};

/// Name -> metric map. Metric objects are stable once created (node-based
/// map), so hot paths look a pointer up once and increment through it.
/// Registration and snapshotting take the registry mutex; updates through
/// cached metric pointers are lock-free (atomics) or per-metric locked
/// (histograms) and never touch the map.
class MetricsRegistry {
 public:
  /// The process-wide registry used by the engine's built-in
  /// instrumentation (buffer pool, UDF evaluator, predicate caches, DP
  /// enumerator).
  static MetricsRegistry& Global();

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  MetricsSnapshot Snapshot() const;

  /// Counters only, skipping the per-histogram percentile sorts. Callers
  /// diff two of these for process-wide deltas (perfbench's per-run
  /// counts); per-execution figures come from thread and context tallies.
  std::map<std::string, uint64_t> SnapshotCounters() const;

  /// Zeroes every counter and histogram (keeps registrations, so cached
  /// pointers stay valid). Benches call this between phases to get
  /// per-phase deltas. Gauges hold current state (e.g. open sessions), not
  /// accumulated work, so they keep their values.
  void ResetAll();

 private:
  mutable std::mutex mu_;
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

/// Observes elapsed wall-clock seconds into a histogram on destruction.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* hist)
      : hist_(hist), start_(std::chrono::steady_clock::now()) {}
  ~ScopedTimer();

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* hist_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace ppp::obs

#endif  // PPP_OBS_METRICS_H_

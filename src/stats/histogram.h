#ifndef PPP_STATS_HISTOGRAM_H_
#define PPP_STATS_HISTOGRAM_H_

#include <string>
#include <vector>

#include "stats/value_runs.h"
#include "types/value.h"

namespace ppp::stats {

/// One equi-depth bucket covering the closed range [lo, hi], where lo/hi
/// are actual sample values (buckets are disjoint; gaps between them hold
/// no sampled value). `count` is the number of sample values that landed
/// here and `distinct` how many of them were distinct — the estimator
/// spreads equality mass over `distinct`, not over the value range, so
/// heavy-duplicate columns don't dilute to zero.
struct HistogramBucket {
  types::Value lo;
  types::Value hi;
  uint64_t count = 0;
  uint64_t distinct = 0;
};

/// Equi-depth (equal-frequency) histogram built from a sample. Bucket
/// boundaries never split one value across two buckets: all copies of a
/// value land in the same bucket, which is what gives equi-depth its
/// error bound — any range estimate is off by at most ~2 bucket masses
/// (≈ 2/B of the sampled mass) regardless of skew.
class EquiDepthHistogram {
 public:
  /// Builds from `values`, which need not be sorted: SortedRuns, then
  /// BuildSorted. Empty input yields an empty histogram.
  static EquiDepthHistogram Build(std::vector<types::Value> values,
                                  size_t max_buckets);

  /// Builds from a sample already grouped into runs of equal values, as
  /// SortedRuns returns it: strictly ascending under Value::Compare, every
  /// count >= 1. Each run's `value` stands for all its copies; a bucket's
  /// lo/hi are the values of its first and last runs. Produces at most
  /// `max_buckets` buckets; fewer when there are fewer runs.
  static EquiDepthHistogram BuildSorted(const std::vector<ValueRun>& runs,
                                        size_t max_buckets);

  bool empty() const { return total_count_ == 0; }
  uint64_t total_count() const { return total_count_; }
  const std::vector<HistogramBucket>& buckets() const { return buckets_; }

  /// Fraction of the histogrammed sample strictly below `v`
  /// (or <= `v` when `inclusive`). In [0, 1].
  double FractionBelow(const types::Value& v, bool inclusive) const;

  /// Fraction of the histogrammed sample equal to `v`: the containing
  /// bucket's mass spread uniformly over its distinct values. In [0, 1].
  double FractionEqual(const types::Value& v) const;

  /// Debug form: [lo..hi]#count/distinct per bucket.
  std::string ToString() const;

 private:
  std::vector<HistogramBucket> buckets_;
  uint64_t total_count_ = 0;
};

}  // namespace ppp::stats

#endif  // PPP_STATS_HISTOGRAM_H_

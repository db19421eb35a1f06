#include "stats/histogram.h"

#include <algorithm>
#include <cstdio>

namespace ppp::stats {

namespace {

bool IsNumeric(const types::Value& v) {
  return v.type() == types::TypeId::kInt64 ||
         v.type() == types::TypeId::kDouble;
}

/// Fraction of [lo, hi] lying below v, by linear interpolation for
/// numeric endpoints; 0.5 when the bucket can't be interpolated (strings,
/// single-value buckets).
double InterpolateBelow(const HistogramBucket& b, const types::Value& v) {
  if (IsNumeric(b.lo) && IsNumeric(b.hi) && IsNumeric(v)) {
    const double lo = b.lo.AsNumeric();
    const double hi = b.hi.AsNumeric();
    if (hi > lo) {
      return std::clamp((v.AsNumeric() - lo) / (hi - lo), 0.0, 1.0);
    }
  }
  return 0.5;
}

}  // namespace

EquiDepthHistogram EquiDepthHistogram::Build(
    std::vector<types::Value> values, size_t max_buckets) {
  return BuildSorted(SortedRuns(std::move(values)), max_buckets);
}

EquiDepthHistogram EquiDepthHistogram::BuildSorted(
    const std::vector<ValueRun>& runs, size_t max_buckets) {
  EquiDepthHistogram h;
  uint64_t n = 0;
  for (const ValueRun& run : runs) n += run.count;
  if (n == 0 || max_buckets == 0) return h;

  // Equal-frequency target; runs of one value are never split, so a heavy
  // hitter simply overfills its bucket instead of straddling a boundary.
  const uint64_t depth =
      std::max<uint64_t>(1, (n + max_buckets - 1) / max_buckets);

  HistogramBucket current;
  for (const ValueRun& run : runs) {
    if (current.count == 0) current.lo = run.value;
    current.count += run.count;
    current.distinct += 1;
    if (current.count >= depth) {
      current.hi = run.value;
      h.buckets_.push_back(std::move(current));
      current = HistogramBucket{};
    }
  }
  if (current.count > 0) {
    current.hi = runs.back().value;
    h.buckets_.push_back(std::move(current));
  }
  h.total_count_ = n;
  return h;
}

double EquiDepthHistogram::FractionBelow(const types::Value& v,
                                         bool inclusive) const {
  if (empty()) return 0.0;
  double below = 0.0;
  for (const HistogramBucket& b : buckets_) {
    if (b.hi < v) {
      below += static_cast<double>(b.count);
    } else if (v < b.lo || b.lo == v) {
      // v is at or before this bucket's low edge: nothing more below it
      // except, for the at-edge case, interpolated mass (zero).
      break;
    } else {
      below += static_cast<double>(b.count) * InterpolateBelow(b, v);
      break;
    }
  }
  double frac = below / static_cast<double>(total_count_);
  if (inclusive) frac += FractionEqual(v);
  return std::clamp(frac, 0.0, 1.0);
}

double EquiDepthHistogram::FractionEqual(const types::Value& v) const {
  if (empty()) return 0.0;
  for (const HistogramBucket& b : buckets_) {
    if (b.hi < v) continue;
    if (v < b.lo) return 0.0;  // In a gap: the sample never saw v.
    const double share =
        static_cast<double>(b.count) /
        static_cast<double>(std::max<uint64_t>(1, b.distinct));
    return share / static_cast<double>(total_count_);
  }
  return 0.0;
}

std::string EquiDepthHistogram::ToString() const {
  std::string out;
  for (const HistogramBucket& b : buckets_) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "#%llu/%llu ",
                  static_cast<unsigned long long>(b.count),
                  static_cast<unsigned long long>(b.distinct));
    out += "[" + b.lo.ToString() + ".." + b.hi.ToString() + "]" + buf;
  }
  if (!out.empty()) out.pop_back();
  return out;
}

}  // namespace ppp::stats

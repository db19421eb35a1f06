#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

namespace ppp::obs {

namespace {

/// %.17g keeps doubles round-trippable; trims to the short form for the
/// common integral case.
std::string NumberToString(double v) {
  if (!std::isfinite(v)) return v > 0 ? "1e308" : (v < 0 ? "-1e308" : "0");
  if (v == static_cast<double>(static_cast<int64_t>(v)) &&
      std::abs(v) < 1e15) {
    return std::to_string(static_cast<int64_t>(v));
  }
  return common::StringPrintf("%.17g", v);
}

}  // namespace

using common::JsonEscape;

void Histogram::Observe(double v) {
  std::lock_guard<std::mutex> lock(mu_);
  count_ += 1;
  sum_ += v;
  if (count_ == 1) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  if (samples_.size() < kSampleCap) {
    samples_.push_back(v);
    return;
  }
  // Algorithm R: keep sample i with probability kSampleCap / count. The
  // xorshift64 step is cheap enough to run under the lock.
  rng_state_ ^= rng_state_ << 13;
  rng_state_ ^= rng_state_ >> 7;
  rng_state_ ^= rng_state_ << 17;
  const uint64_t slot = rng_state_ % count_;
  if (slot < kSampleCap) samples_[slot] = v;
}

size_t Histogram::count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

double Histogram::sum() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sum_;
}

double Histogram::min() const {
  std::lock_guard<std::mutex> lock(mu_);
  return min_;
}

double Histogram::max() const {
  std::lock_guard<std::mutex> lock(mu_);
  return max_;
}

bool Histogram::samples_capped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_ > kSampleCap;
}

double Histogram::Percentile(double p) const {
  std::vector<double> sorted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (samples_.empty()) return 0.0;
    sorted = samples_;
  }
  std::sort(sorted.begin(), sorted.end());
  p = std::clamp(p, 0.0, 100.0);
  // Nearest-rank: the smallest sample with at least p% of samples <= it.
  const size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return sorted[rank == 0 ? 0 : rank - 1];
}

void Histogram::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  samples_.clear();
  count_ = 0;
  sum_ = 0.0;
  min_ = 0.0;
  max_ = 0.0;
}

std::string MetricsSnapshot::ToText() const {
  std::string out;
  for (const auto& [name, value] : counters) {
    out += name + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : gauges) {
    out += name + " " + NumberToString(value) + "\n";
  }
  for (const auto& [name, h] : histograms) {
    out += common::StringPrintf(
        "%s count=%zu sum=%s min=%s max=%s p50=%s p95=%s p99=%s%s\n",
        name.c_str(), h.count, NumberToString(h.sum).c_str(),
        NumberToString(h.min).c_str(), NumberToString(h.max).c_str(),
        NumberToString(h.p50).c_str(), NumberToString(h.p95).c_str(),
        NumberToString(h.p99).c_str(),
        h.samples_capped ? " samples_capped=1" : "");
  }
  return out;
}

std::string MetricsSnapshot::ToJson() const {
  // Built with append() rather than operator+ chains: GCC 12 at -O3 reports
  // -Werror=restrict false positives inside the temporaries those create.
  std::string out = "{\"counters\": {";
  auto key = [&out](bool* first, const std::string& name) {
    if (!*first) out.append(", ");
    *first = false;
    out.append("\"").append(JsonEscape(name)).append("\": ");
  };
  auto field = [&out](const char* name, const std::string& value) {
    out.append(", \"").append(name).append("\": ").append(value);
  };
  bool first = true;
  for (const auto& [name, value] : counters) {
    key(&first, name);
    out.append(std::to_string(value));
  }
  out.append("}, \"gauges\": {");
  first = true;
  for (const auto& [name, value] : gauges) {
    key(&first, name);
    out.append(NumberToString(value));
  }
  out.append("}, \"histograms\": {");
  first = true;
  for (const auto& [name, h] : histograms) {
    key(&first, name);
    out.append("{\"count\": ").append(std::to_string(h.count));
    field("sum", NumberToString(h.sum));
    field("min", NumberToString(h.min));
    field("max", NumberToString(h.max));
    field("p50", NumberToString(h.p50));
    field("p95", NumberToString(h.p95));
    field("p99", NumberToString(h.p99));
    field("samples_capped", h.samples_capped ? "true" : "false");
    out.append("}");
  }
  out += "}}";
  return out;
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return &counters_[name];
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return &gauges_[name];
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return &histograms_[name];
}

std::map<std::string, uint64_t> MetricsRegistry::SnapshotCounters() const {
  std::map<std::string, uint64_t> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, c] : counters_) out[name] = c.value();
  return out;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, c] : counters_) snap.counters[name] = c.value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g.value();
  for (const auto& [name, h] : histograms_) {
    MetricsSnapshot::HistogramSummary s;
    s.count = h.count();
    s.sum = h.sum();
    s.min = h.min();
    s.max = h.max();
    s.p50 = h.Percentile(50);
    s.p95 = h.Percentile(95);
    s.p99 = h.Percentile(99);
    s.samples_capped = h.samples_capped();
    snap.histograms[name] = s;
  }
  return snap;
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c.Reset();
  for (auto& [name, h] : histograms_) h.Reset();
}

ScopedTimer::~ScopedTimer() {
  if (hist_ != nullptr) {
    hist_->Observe(std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start_)
                       .count());
  }
}

}  // namespace ppp::obs

#include "obs/profiler.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

namespace ppp::obs {

bool RankDriftExceeds(double est_rank, double obs_rank, double threshold) {
  const double magnitude =
      std::max(std::fabs(est_rank), std::fabs(obs_rank));
  if (magnitude == 0.0) return false;
  return std::fabs(obs_rank - est_rank) / magnitude > threshold;
}

PredicateProfiler& PredicateProfiler::Global() {
  static PredicateProfiler* profiler = new PredicateProfiler();
  return *profiler;
}

double PredicateProfiler::drift_threshold() const {
  std::lock_guard<std::mutex> lock(mu_);
  return drift_threshold_;
}

void PredicateProfiler::set_drift_threshold(double t) {
  std::lock_guard<std::mutex> lock(mu_);
  drift_threshold_ = t;
}

void PredicateProfiler::Record(const std::string& function, double seconds,
                               const std::string& input_key,
                               std::optional<bool> passed) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entries_[function];
  e.invocations += 1;
  e.wall_seconds += seconds;
  if (!passed.has_value()) return;
  e.has_selectivity = true;
  if (e.inputs_capped && e.seen.count(input_key) == 0) return;
  const bool inserted = e.seen.insert(input_key).second;
  if (inserted) {
    e.distinct_inputs += 1;
    if (*passed) e.distinct_passes += 1;
    if (e.seen.size() >= kMaxDistinctInputs) e.inputs_capped = true;
  }
}

PredicateProfile PredicateProfiler::ToProfile(const std::string& name,
                                              const Entry& e) const {
  PredicateProfile p;
  p.function = name;
  p.invocations = e.invocations;
  p.wall_seconds = e.wall_seconds;
  p.distinct_inputs = e.distinct_inputs;
  p.distinct_passes = e.distinct_passes;
  p.has_selectivity = e.has_selectivity;
  p.inputs_capped = e.inputs_capped;
  return p;
}

std::optional<PredicateProfile> PredicateProfiler::Get(
    const std::string& function) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(function);
  if (it == entries_.end()) return std::nullopt;
  return ToProfile(it->first, it->second);
}

std::vector<PredicateProfile> PredicateProfiler::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<PredicateProfile> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    out.push_back(ToProfile(name, entry));
  }
  return out;
}

void PredicateProfiler::RecordTransfer(const std::string& site,
                                       uint64_t probed, uint64_t passed,
                                       bool killed, double measured_fpr) {
  std::lock_guard<std::mutex> lock(mu_);
  TransferProfile& t = transfers_[site];
  t.site = site;
  t.queries += 1;
  t.probed += probed;
  t.passed += passed;
  if (killed) t.kills += 1;
  if (measured_fpr >= 0.0) t.last_fpr = measured_fpr;
}

std::optional<TransferProfile> PredicateProfiler::GetTransfer(
    const std::string& site) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = transfers_.find(site);
  if (it == transfers_.end()) return std::nullopt;
  return it->second;
}

std::vector<TransferProfile> PredicateProfiler::TransferSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TransferProfile> out;
  out.reserve(transfers_.size());
  for (const auto& [site, profile] : transfers_) {
    out.push_back(profile);
  }
  return out;
}

std::string PredicateProfiler::ReportText() const {
  const std::vector<PredicateProfile> profiles = Snapshot();
  if (profiles.empty()) return "no function invocations profiled\n";
  std::string out = common::StringPrintf(
      "%-24s %10s %12s %12s %10s %10s\n", "function", "calls", "mean_ms",
      "cost_ios", "distinct", "obs_sel");
  for (const PredicateProfile& p : profiles) {
    std::string sel = "-";
    if (p.has_selectivity && p.distinct_inputs > 0) {
      sel = common::StringPrintf("%.4f%s", p.ObservedSelectivity(0.0),
                                 p.inputs_capped ? "*" : "");
    }
    out += common::StringPrintf(
        "%-24s %10llu %12.4f %12.2f %10llu %10s\n", p.function.c_str(),
        static_cast<unsigned long long>(p.invocations),
        p.mean_seconds() * 1e3, p.ObservedCostIos(kSecondsPerIo),
        static_cast<unsigned long long>(p.distinct_inputs), sel.c_str());
  }
  out += common::StringPrintf("(cost_ios assumes %.0fus per random I/O)\n",
                              kSecondsPerIo * 1e6);
  const std::vector<TransferProfile> transfers = TransferSnapshot();
  if (!transfers.empty()) {
    out += common::StringPrintf("%-32s %8s %12s %10s %8s %10s\n", "transfer",
                                "queries", "probed", "pass_rate", "kills",
                                "fpr");
    for (const TransferProfile& t : transfers) {
      std::string fpr = "-";
      if (t.last_fpr >= 0.0) {
        fpr = common::StringPrintf("%.4f", t.last_fpr);
      }
      out += common::StringPrintf(
          "%-32s %8llu %12llu %10.4f %8llu %10s\n", t.site.c_str(),
          static_cast<unsigned long long>(t.queries),
          static_cast<unsigned long long>(t.probed), t.PassRate(),
          static_cast<unsigned long long>(t.kills), fpr.c_str());
    }
  }
  return out;
}

void PredicateProfiler::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  transfers_.clear();
}

PredicateFeedbackStore& PredicateFeedbackStore::Global() {
  static PredicateFeedbackStore* store = new PredicateFeedbackStore();
  return *store;
}

void PredicateFeedbackStore::Update(const std::string& function,
                                    const FeedbackEntry& entry) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_[function] = entry;
}

std::optional<FeedbackEntry> PredicateFeedbackStore::Lookup(
    const std::string& function) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(function);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

size_t PredicateFeedbackStore::AbsorbProfiles(const PredicateProfiler& profiler,
                                              uint64_t min_invocations) {
  const std::vector<PredicateProfile> profiles = profiler.Snapshot();
  size_t absorbed = 0;
  for (const PredicateProfile& p : profiles) {
    if (p.invocations < min_invocations) continue;
    FeedbackEntry entry;
    entry.cost_per_call =
        p.ObservedCostIos(PredicateProfiler::kSecondsPerIo);
    entry.has_selectivity = p.has_selectivity && p.distinct_inputs > 0;
    if (entry.has_selectivity) {
      entry.selectivity = p.ObservedSelectivity(0.5);
    }
    entry.samples = p.invocations;
    Update(p.function, entry);
    ++absorbed;
  }
  return absorbed;
}

void PredicateFeedbackStore::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
}

size_t PredicateFeedbackStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace ppp::obs

#include "obs/plan_history.h"

#include <algorithm>

#include "obs/env_flag.h"

namespace ppp::obs {

PlanHistory::PlanHistory() {
  enabled_.store(EnvFlag("PPP_PLAN_HISTORY", true), std::memory_order_relaxed);
}

PlanHistory& PlanHistory::Global() {
  static PlanHistory* history = new PlanHistory();
  return *history;
}

uint64_t PlanHistory::Key(uint64_t text_hash, uint64_t fingerprint) {
  // FNV-1a fold of the pair; collisions would only merge two histories, and
  // at 64 bits over ~1k live entries they are not a practical concern.
  uint64_t h = 1469598103934665603ULL;
  for (uint64_t v : {text_hash, fingerprint}) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xffULL;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

PlanOutcome PlanHistory::Record(uint64_t text_hash, uint64_t plan_fingerprint,
                                double wall_seconds,
                                uint64_t udf_invocations, double max_qerror,
                                uint64_t query_id) {
  PlanOutcome outcome;
  if (!enabled() || text_hash == 0) return outcome;
  std::lock_guard<std::mutex> lock(mu_);

  auto [current_it, first_plan] =
      current_plan_.try_emplace(text_hash, plan_fingerprint);
  const uint64_t previous_fingerprint = current_it->second;
  const bool changed = !first_plan && previous_fingerprint != plan_fingerprint;
  current_it->second = plan_fingerprint;

  const uint64_t key = Key(text_hash, plan_fingerprint);
  auto [it, inserted] = entries_.try_emplace(key);
  Entry& entry = it->second;
  if (inserted) {
    entry.row.text_hash = text_hash;
    entry.row.plan_fingerprint = plan_fingerprint;
    entry.row.first_query_id = query_id;
  } else {
    by_last_use_.erase({entry.row.last_query_id, key});
  }
  // A late writer may carry an older id than the entry already saw; the
  // last use stays the newest, so eviction order never runs backwards.
  entry.row.last_query_id = std::max(entry.row.last_query_id, query_id);
  by_last_use_.emplace(entry.row.last_query_id, key);
  if (changed) {
    outcome.plan_changed = true;
    changed_total_.fetch_add(1, std::memory_order_relaxed);
    entry.row.plan_changed = true;
    entry.displaced_fingerprint = previous_fingerprint;
    // A fresh displacement restarts regression detection: the plan must
    // prove slower than *this* predecessor, not one it displaced earlier.
    entry.row.regressed = false;
  }

  ++entry.row.executions;
  entry.wall_sum += wall_seconds;
  if (entry.walls.size() < kWallSamples) {
    entry.walls.push_back(wall_seconds);
  } else {
    entry.walls[entry.wall_next] = wall_seconds;
    entry.wall_next = (entry.wall_next + 1) % kWallSamples;
  }
  entry.row.total_invocations += udf_invocations;
  entry.row.max_qerror = std::max(entry.row.max_qerror, max_qerror);

  if (!entry.row.regressed && entry.displaced_fingerprint != 0 &&
      entry.row.executions >= kWarmupExecutions) {
    auto prior = entries_.find(Key(text_hash, entry.displaced_fingerprint));
    if (prior != entries_.end() &&
        prior->second.row.executions >= kWarmupExecutions) {
      const double prior_mean =
          prior->second.wall_sum /
          static_cast<double>(prior->second.row.executions);
      const double mean =
          entry.wall_sum / static_cast<double>(entry.row.executions);
      if (prior_mean > 0.0 && mean > prior_mean * kRegressionFactor) {
        entry.row.regressed = true;
        outcome.plan_regressed = true;
        outcome.prior_wall_mean = prior_mean;
        regressed_total_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  while (entries_.size() > max_entries_) EvictOldestLocked();
  return outcome;
}

void PlanHistory::EvictOldestLocked() {
  if (by_last_use_.empty()) return;
  const auto victim = by_last_use_.begin();
  const auto oldest = entries_.find(victim->second);
  by_last_use_.erase(victim);
  if (oldest == entries_.end()) return;
  auto current = current_plan_.find(oldest->second.row.text_hash);
  if (current != current_plan_.end() &&
      current->second == oldest->second.row.plan_fingerprint) {
    current_plan_.erase(current);
  }
  entries_.erase(oldest);
}

double PlanHistory::P95Locked(const Entry& entry) {
  if (entry.walls.empty()) return 0.0;
  std::vector<double> sorted(entry.walls);
  std::sort(sorted.begin(), sorted.end());
  // Nearest-rank: ceil(0.95 * n) as a 1-based rank.
  const size_t rank = (sorted.size() * 95 + 99) / 100;
  return sorted[std::min(rank, sorted.size()) - 1];
}

std::vector<PlanHistoryEntry> PlanHistory::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<PlanHistoryEntry> out;
  out.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) {
    (void)key;
    PlanHistoryEntry row = entry.row;
    row.wall_mean = entry.row.executions == 0
                        ? 0.0
                        : entry.wall_sum /
                              static_cast<double>(entry.row.executions);
    row.wall_p95 = P95Locked(entry);
    out.push_back(std::move(row));
  }
  std::sort(out.begin(), out.end(),
            [](const PlanHistoryEntry& a, const PlanHistoryEntry& b) {
              if (a.first_query_id != b.first_query_id) {
                return a.first_query_id < b.first_query_id;
              }
              return a.plan_fingerprint < b.plan_fingerprint;
            });
  return out;
}

size_t PlanHistory::PlansFor(uint64_t text_hash) const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t count = 0;
  for (const auto& [key, entry] : entries_) {
    (void)key;
    if (entry.row.text_hash == text_hash) ++count;
  }
  return count;
}

bool PlanHistory::Regressed(uint64_t text_hash, uint64_t fingerprint) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(Key(text_hash, fingerprint));
  if (it == entries_.end()) return false;
  return it->second.row.regressed;
}

size_t PlanHistory::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

void PlanHistory::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
  current_plan_.clear();
  by_last_use_.clear();
  changed_total_.store(0, std::memory_order_relaxed);
  regressed_total_.store(0, std::memory_order_relaxed);
}

}  // namespace ppp::obs

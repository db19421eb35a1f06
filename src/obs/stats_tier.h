#ifndef PPP_OBS_STATS_TIER_H_
#define PPP_OBS_STATS_TIER_H_

namespace ppp::obs {

/// How much the optimizer trusted its selectivity/cost inputs for a plan:
/// the *weakest* source among the plan's predicates (a single declared-only
/// guess taints the whole plan's provenance). Ordered from weakest to
/// strongest, matching the provenance ladder feedback > stats > declared.
enum class StatsTier : int {
  kDeclared = 0,  // Catalog declarations only.
  kStats = 1,     // ANALYZE histograms/MCVs/NDV sketches.
  kFeedback = 2,  // Profiled observed costs and selectivities.
};

/// Lowercase name ("declared", "stats", "feedback") for display and the
/// ppp_query_log system table.
inline const char* StatsTierName(StatsTier tier) {
  switch (tier) {
    case StatsTier::kDeclared:
      return "declared";
    case StatsTier::kStats:
      return "stats";
    case StatsTier::kFeedback:
      return "feedback";
  }
  return "declared";
}

}  // namespace ppp::obs

#endif  // PPP_OBS_STATS_TIER_H_

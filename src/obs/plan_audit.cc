#include "obs/plan_audit.h"

#include <algorithm>

#include "obs/env_flag.h"

namespace ppp::obs {

double CardinalityQError(double est_rows, uint64_t actual_rows) {
  const double est = std::max(1.0, est_rows);
  const double actual = std::max(1.0, static_cast<double>(actual_rows));
  return std::max(est / actual, actual / est);
}

PlanAudit::PlanAudit()
    : BoundedRing(kDefaultCapacity, EnvFlag("PPP_PLAN_AUDIT", true)) {}

PlanAudit& PlanAudit::Global() {
  static PlanAudit* audit = new PlanAudit();
  return *audit;
}

}  // namespace ppp::obs

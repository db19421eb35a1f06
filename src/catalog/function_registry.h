#ifndef PPP_CATALOG_FUNCTION_REGISTRY_H_
#define PPP_CATALOG_FUNCTION_REGISTRY_H_

#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "types/value.h"

namespace ppp::catalog {

/// Metadata and implementation of a user-defined function.
///
/// Following the paper (§2), the cost of a function is declared in units
/// of *random database I/Os per invocation*: costly100 costs as much as a
/// query touching 100 unclustered tuples. The executor counts invocations
/// and the measurement harness charges `invocations × cost_per_call`;
/// implementations therefore do no real work.
struct FunctionDef {
  std::string name;
  /// Cost per invocation in random-I/O units. Simple comparison predicates
  /// are "zero cost" in the paper's model.
  double cost_per_call = 0.0;
  /// Estimated fraction of tuples for which a boolean function returns
  /// true. Ignored for non-boolean functions.
  double selectivity = 1.0;
  types::TypeId return_type = types::TypeId::kBool;
  /// Whether the predicate-cache layer may memoize results (§5.1).
  bool cacheable = true;
  /// When false, the measurement harness does not bill invocations at
  /// cost_per_call: the function does *real* metered work (e.g. a rewritten
  /// subquery whose I/O already flows through the buffer pool), and
  /// cost_per_call exists only for the optimizer's estimates.
  bool charge_invocations = true;
  /// Whether impl may be invoked from the batch executor's worker threads.
  /// False for functions that touch shared engine state (e.g. rewritten
  /// subqueries executing nested plans through the buffer pool); such
  /// predicates always evaluate on the coordinator thread.
  bool parallel_safe = true;
  std::function<types::Value(const std::vector<types::Value>&)> impl;
};

/// Name → FunctionDef map. The optimizer reads cost/selectivity; the
/// executor calls impl. Filled while the database loads and only read
/// afterwards, so it has no lock: statements never register (a rewritten
/// subquery's definition belongs to its call expression, see
/// expr::ResolveFunction).
class FunctionRegistry {
 public:
  FunctionRegistry() = default;

  FunctionRegistry(const FunctionRegistry&) = delete;
  FunctionRegistry& operator=(const FunctionRegistry&) = delete;

  common::Status Register(FunctionDef def);

  /// Looks up by name; NotFound if absent.
  common::Result<const FunctionDef*> Lookup(const std::string& name) const;

  bool Contains(const std::string& name) const {
    return functions_.count(name) > 0;
  }

  std::vector<std::string> Names() const;

  /// Registers a deterministic boolean UDF with the given cost and true
  /// selectivity. The implementation hashes its arguments so the *actual*
  /// pass rate over uniform data matches `selectivity`, keeping estimated
  /// and measured selectivities aligned as in the paper's synthetic setup.
  common::Status RegisterCostlyPredicate(const std::string& name, double cost,
                                         double selectivity);

 private:
  std::unordered_map<std::string, FunctionDef> functions_;
};

}  // namespace ppp::catalog

#endif  // PPP_CATALOG_FUNCTION_REGISTRY_H_

#include "obs/query_log.h"

#include "obs/env_flag.h"

namespace ppp::obs {

const char* StatsTierName(StatsTier tier) {
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

QueryLog::QueryLog() : enabled_(EnvFlag("PPP_QUERY_LOG", true)) {}

QueryLog& QueryLog::Global() {
  static QueryLog* log = new QueryLog();
  return *log;
}

}  // namespace ppp::obs

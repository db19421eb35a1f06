#include "obs/query_log.h"

#include "obs/env_flag.h"

namespace ppp::obs {

QueryLog::QueryLog()
    : BoundedRing(kDefaultCapacity, EnvFlag("PPP_QUERY_LOG", true)) {}

QueryLog& QueryLog::Global() {
  static QueryLog* log = new QueryLog();
  return *log;
}

}  // namespace ppp::obs

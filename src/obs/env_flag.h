#ifndef PPP_OBS_ENV_FLAG_H_
#define PPP_OBS_ENV_FLAG_H_

#include <cstdlib>

namespace ppp::obs {

/// Boolean environment switch: unset or empty means `default_on`, "0"
/// means off, any other value means on. PPP_QUERY_LOG=0, PPP_PLAN_AUDIT=0
/// and PPP_PLAN_HISTORY=0 turn their default-on stores off;
/// PPP_TRACE_SPANS=1 turns the default-off span tracer on.
inline bool EnvFlag(const char* name, bool default_on) {
  const char* value = std::getenv(name);
  if (value == nullptr || value[0] == '\0') return default_on;
  return !(value[0] == '0' && value[1] == '\0');
}

}  // namespace ppp::obs

#endif  // PPP_OBS_ENV_FLAG_H_

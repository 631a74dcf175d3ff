#include "check/config.h"

#include <cstdlib>
#include <string_view>

namespace gpuddt::check {

bool Switch::enabled(int tri_state) const {
  if (tri_state >= 0) return tri_state != 0;
  if (forced_) return *forced_;
  const char* v = std::getenv(env_var_);
  if (v == nullptr || *v == '\0') return build_default_;
  const std::string_view s(v);
  return !(s == "0" || s == "off" || s == "false");
}

Switch check_switch{"GPUDDT_CHECK", GPUDDT_CHECK_DEFAULT != 0};

}  // namespace gpuddt::check

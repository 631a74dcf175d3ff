// The process-wide on/off switches of the simulator's opt-in tools.
//
// Every opt-in tool of the simulator resolves through one Switch, in
// order (docs/api.md, "Switch precedence"):
//   1. the owning object's tri-state (-1 inherits, 0 off, 1 on), where the
//      switch has one - so tests can force a tool regardless of
//      environment;
//   2. set_forced() - a process-wide override (bench flags, tools, tests);
//   3. the environment variable: unset or "" defers, "0"/"off"/"false"
//      disable, anything else enables;
//   4. the build option (compile-time default, normally OFF).
// The switches are check_switch here (tri-state MachineConfig::check),
// verify::verify_switch (verify/hook.h) and mpi::stream_triggered_switch
// (mpi/runtime.h; tri-state RuntimeConfig::stream_triggered).
//
// The checking layer's findings go into the run's Recorder (obs::report,
// obs/recorder.h), not into state of this layer.
#pragma once

#include <optional>

namespace gpuddt::check {

/// One process-wide on/off switch; see the file comment for the order.
class Switch {
 public:
  constexpr Switch(const char* env_var, bool build_default)
      : env_var_(env_var), build_default_(build_default) {}

  /// Resolve for an object whose own setting is `tri_state` (-1 inherits
  /// the process-wide value, 0/1 force off/on).
  bool enabled(int tri_state = -1) const;

  /// Process-wide override below the tri-state; nullopt restores the
  /// environment/build resolution.
  void set_forced(std::optional<bool> forced) { forced_ = forced; }

 private:
  const char* env_var_;
  bool build_default_;
  std::optional<bool> forced_;
};

/// The access checker: attach a tracker to each new Machine (GPUDDT_CHECK;
/// the bench --check flag forces it on).
extern Switch check_switch;

}  // namespace gpuddt::check

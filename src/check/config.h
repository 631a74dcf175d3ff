// The process-wide on/off switches and the process-global diagnostic sink
// of the checking layer.
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
// Diagnostics from every tracker and validator in the process land in one
// sink: counted without bound, stored up to a cap, echoed to stderr up to
// a smaller cap. report_json() serializes the sink (and the tracker
// aggregate counters) as a `gpuddt-check-v1` document for
// tools/check_report.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "check/diagnostics.h"

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

// --- Diagnostic sink --------------------------------------------------------

/// Record a diagnostic: count it, store it (up to a cap) and echo it to
/// stderr (up to a smaller cap).
void report(Diagnostic diag);

/// Stored diagnostics (capped copy; counts below are exact).
std::vector<Diagnostic> diagnostics();

/// Exact totals since process start / the last clear.
std::int64_t hazard_count();
std::int64_t violation_count();

/// Drop stored diagnostics and zero the totals (tests).
void clear_diagnostics();

// --- Tracker aggregate counters (all trackers in the process) ---------------

void add_tracked(std::int64_t ops, std::int64_t ranges);
void add_dropped(std::int64_t records);
std::int64_t ops_tracked();
std::int64_t ranges_tracked();
std::int64_t records_dropped();

// --- Report -----------------------------------------------------------------

/// Serialize the sink as a `gpuddt-check-v1` JSON document.
std::string report_json();

/// report_json() into `path`; returns false on I/O failure.
bool write_report(const std::string& path);

}  // namespace gpuddt::check

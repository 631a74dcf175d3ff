// Structured findings of the checking layer and the verifier
// (docs/checking.md, docs/verification.md).
//
// The stream hazard detector (check/access_tracker.h), the DEV invariant
// checker (check/dev_invariants.h) and the verifier's cache-insert hook
// (verify/hook.h) report each finding as one Diagnostic into the run's
// Recorder (obs::report in obs/recorder.h), which dumps them in the
// `diagnostics` section of its gpuddt-metrics-v1 document.
#pragma once

#include <cstdint>
#include <string>

namespace gpuddt::obs {

/// One side of a hazard: which operation touched which bytes, when.
struct AccessDesc {
  std::string label;         // operation label ("memcpy_async", "pack_dev")
  std::string queue;         // stream name / pointer, or "host"
  std::uintptr_t ptr = 0;    // first byte of the conflicting overlap's range
  std::int64_t len = 0;      // bytes of that range
  std::int64_t start = 0;    // guaranteed earliest start (virtual ns)
  std::int64_t finish = 0;   // guaranteed finish (virtual ns)
  bool write = false;
};

struct Diagnostic {
  std::string kind;     // "hazard" | "dev_invariant" | "verify"
  std::string type;     // "RAW"/"WAR"/"WAW", the violated invariant, or
                        // the unproven obligation
  std::string message;  // human-readable one-liner
  // Hazard specifics (kind == "hazard"); `a` happens-before-wise earlier.
  AccessDesc a;
  AccessDesc b;
  int device = -1;
  // DEV-invariant specifics (kind == "dev_invariant").
  std::int64_t unit_index = -1;
};

}  // namespace gpuddt::obs

// GPUDDT_VERIFY - the verifier's opt-in DevCache-insert hook.
//
// When enabled, every DEV unit list inserted into a DevCache (the
// engine's finish-path fills) is first certified by the
// symbolic prover: verify_type over the datatype's three
// representations, then verify_dev over the exact unit list. An
// unproven obligation reports a `kind: "verify"` diagnostic into the
// cache's recorder (obs::report) and throws CertificationFailure - an
// uncertified DEV never becomes reachable from the cache.
//
// Enablement is verify_switch, resolved like every check::Switch
// (check/config.h): set_forced() (tools / tests) > the GPUDDT_VERIFY
// environment variable > the GPUDDT_VERIFY build option (default OFF).
//
// Certification traffic is observable through the verify.* counters
// (docs/metrics.md): obligations proved/failed, DEVs
// certified/rejected, and wall-clock prover time (verify.prover_ns -
// excluded from canonical dumps, like check.*, because it is
// instrumentation, not simulated behavior).
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>

#include "check/config.h"
#include "core/dev.h"

namespace gpuddt::obs {
class Recorder;
}

namespace gpuddt::verify {

class CertificationFailure : public std::runtime_error {
 public:
  explicit CertificationFailure(const std::string& what)
      : std::runtime_error(what) {}
};

/// Whether DevCache inserts are certified (no per-object tri-state).
extern check::Switch verify_switch;

/// Certify (dt, count, unit_bytes) -> units at a cache-insert boundary.
/// Counts verify.* metrics into `rec` (nullable), reports the first
/// unproven obligation there (obs::report) and throws
/// CertificationFailure for it. Callers gate on verify_switch.
void certify_insert(const mpi::DatatypePtr& dt, std::int64_t count,
                    std::int64_t unit_bytes,
                    std::span<const core::CudaDevDist> units,
                    obs::Recorder* rec);

}  // namespace gpuddt::verify

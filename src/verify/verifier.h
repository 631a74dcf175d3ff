// The symbolic DEV/datatype verifier - proof obligations and provers.
//
// verify_type() proves, for a committed datatype and ALL counts n (not a
// sampled few), that its constructor tree and its one program - the
// canonical program every walker reads - describe exactly the same
// byte-visit sequence, with exact bounds/size/extent and no intra- or
// cross-element overlap. verify_dev() then proves a converted CUDA DEV
// unit list is exactly the closed-form unit split of the program's
// maximal contiguous runs, merged across element seams: right unit
// count, every non-contiguous displacement exact, pack destinations
// exactly contiguous over [0, size*count).
// verify_pipeline() proves the engine's fragment
// pipeline hazard-free over all legal interleavings (pipeline.h).
//
// Each check is an *obligation* with a stable name (the catalogue in
// docs/verification.md); a report certifies only when every obligation
// is proved. tools/dev_verify serializes reports as gpuddt-verify-v1
// JSON; the GPUDDT_VERIFY cache-insert hook (hook.h) rejects DEVs whose
// report does not certify.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/dev.h"
#include "verify/pipeline.h"
#include "verify/symbolic.h"

namespace gpuddt::verify {

/// One named proof obligation and its outcome. `detail` is empty for a
/// proved obligation and names the refuting witness otherwise.
struct Obligation {
  std::string name;
  bool proved = false;
  std::string detail;
};

struct Report {
  std::string subject;  // what was verified (type tree / DEV key / model)
  std::vector<Obligation> obligations;

  bool certified() const {
    for (const Obligation& o : obligations) {
      if (!o.proved) return false;
    }
    return true;
  }
  /// First unproven obligation; nullptr when certified.
  const Obligation* first_failed() const {
    for (const Obligation& o : obligations) {
      if (!o.proved) return &o;
    }
    return nullptr;
  }
};

// Obligation names (the catalogue; docs/verification.md).
inline constexpr const char* kProgramWellFormed = "program_well_formed";
inline constexpr const char* kTreeEquiv = "tree_equiv";
inline constexpr const char* kBoundsExact = "bounds_exact";
inline constexpr const char* kSizeExact = "size_exact";
inline constexpr const char* kExtentExact = "extent_exact";
inline constexpr const char* kSignatureSize = "signature_size";
inline constexpr const char* kNcNoOverlap = "nc_no_overlap";
inline constexpr const char* kNcNoOverlapAcross = "nc_no_overlap_across";
inline constexpr const char* kDevUnitLen = "dev_unit_len";
inline constexpr const char* kDevUnitCount = "dev_unit_count";
inline constexpr const char* kDevNcExact = "dev_nc_exact";
inline constexpr const char* kDevPkExact = "dev_pk_exact";
inline constexpr const char* kPipelineHazardFree = "pipeline_hazard_free";

/// Prove tree == program byte-visit equivalence plus the
/// bounds/size/extent/overlap obligations, closed over all counts.
Report verify_type(const mpi::Datatype& dt);

/// Prove `units` is exactly the unit split of (dt, count, unit_bytes).
Report verify_dev(const mpi::Datatype& dt, std::int64_t count,
                  std::int64_t unit_bytes,
                  std::span<const core::CudaDevDist> units);

/// Prove the modeled engine pipeline free of unordered conflicting
/// accesses over all legal interleavings.
Report verify_pipeline(const EnginePipelineParams& params);

/// The closed-form unit split the DEV conversion must produce, derived
/// from the program's ByteMap rather than from DevCursor:
/// element 0's maximal runs, shifted by e * extent for element e, with
/// a run merged into the previous one where element e's last run ends
/// at element e + 1's first; each merged run is cut into unit_bytes
/// pieces counted from its start, the last one shorter. Exposed for
/// tests and tools.
std::vector<core::CudaDevDist> expected_units(const mpi::Datatype& dt,
                                              std::int64_t count,
                                              std::int64_t unit_bytes);

}  // namespace gpuddt::verify

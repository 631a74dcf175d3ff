// DEV invariant checker - the checking layer's second pass.
//
// Validates converted CUDA DEV unit lists at the engine boundary, before
// descriptors reach a kernel or the cache:
//   * every unit has 0 < length <= S (the work-unit size);
//   * every unit's non-contiguous side lies within the datatype's bounds
//     ([true_lb, true_lb + (count-1)*extent + true_extent) relative to the
//     user buffer);
//   * pack destinations are contiguous (launch windows) or at least
//     pairwise non-overlapping (residue-split windows);
//   * a full list's packed side exactly covers [0, size*count) - the
//     unpack of such a list writes each packed byte's target once, so
//     coverage equals the datatype's true extent footprint.
//
// Violations are reported as structured diagnostics into the caller's
// recorder (obs::report: default_recorder() when it has none) and then
// thrown as InvariantViolation: an invalid descriptor list must never
// launch.
//
// The API takes plain numeric bounds plus the CudaDevDist span so this
// library needs no mpi/ symbols; call sites derive DevListBounds from
// their Datatype.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>

#include "core/dev.h"

namespace gpuddt::obs {
class Recorder;
}

namespace gpuddt::check {

class InvariantViolation : public std::runtime_error {
 public:
  explicit InvariantViolation(const std::string& what)
      : std::runtime_error(what) {}
};

/// Numeric bounds a DEV list is validated against. For a datatype dt
/// packed `count` times with unit size S:
///   nc_lo = dt.true_lb(), nc_hi = dt.true_lb() + (count-1)*dt.extent()
///   + dt.true_extent(), total_bytes = dt.size()*count, unit_bytes = S.
struct DevListBounds {
  std::int64_t nc_lo = 0;
  std::int64_t nc_hi = 0;
  std::int64_t total_bytes = 0;
  std::int64_t unit_bytes = 0;
};

/// Validate a complete converted list (cache insert): unit
/// lengths and bounds, packed side exactly covering [0, total_bytes)
/// with no gaps or overlaps, and the non-contiguous span touching both
/// datatype bounds. `origin` names the call site in diagnostics, which
/// go to `rec` (nullable).
void validate_dev_list(std::span<const core::CudaDevDist> units,
                       const DevListBounds& b, const char* origin,
                       obs::Recorder* rec);

/// Validate one launch window: its units as the window cuts them, i.e.
/// exactly the bytes the kernel moves. `pk_expected` is the packed offset
/// the window must start at; with `contiguous` the pack destinations must
/// be exactly consecutive, otherwise (residue-split windows, which
/// reorder units) merely pairwise non-overlapping.
void validate_dev_window(const core::DevWindow& win, const DevListBounds& b,
                         std::int64_t pk_expected, bool contiguous,
                         const char* origin, obs::Recorder* rec);

}  // namespace gpuddt::check

#include "check/dev_invariants.h"

#include <algorithm>
#include <vector>

#include "obs/recorder.h"

namespace gpuddt::check {

namespace {

[[noreturn]] void fail(const char* origin, obs::Recorder* rec,
                       const char* type, std::int64_t unit_index,
                       std::string message) {
  obs::Diagnostic d;
  d.kind = "dev_invariant";
  d.type = type;
  d.unit_index = unit_index;
  d.message = std::string(origin) + ": " + message;
  std::string what = "gpuddt-check dev_invariant " + std::string(type) +
                     " at " + d.message;
  obs::report(rec, std::move(d));
  throw InvariantViolation(what);
}

std::string unit_str(const core::CudaDevDist& u) {
  return "{nc=" + std::to_string(u.nc_disp) +
         ", pk=" + std::to_string(u.pk_disp) +
         ", len=" + std::to_string(u.length) + "}";
}

/// Shared per-unit checks: length in (0, S] and nc side within bounds.
/// `Units` is a unit span or a DevWindow (whose units are cut).
template <typename Units>
void check_units(const Units& units, const DevListBounds& b,
                 const char* origin, obs::Recorder* rec) {
  for (std::size_t i = 0; i < units.size(); ++i) {
    const core::CudaDevDist u = units[i];
    if (u.length <= 0 || u.length > b.unit_bytes) {
      fail(origin, rec, "unit_length", static_cast<std::int64_t>(i),
           "unit " + unit_str(u) + " length outside (0, " +
               std::to_string(b.unit_bytes) + "]");
    }
    if (u.nc_disp < b.nc_lo || u.nc_disp + u.length > b.nc_hi) {
      fail(origin, rec, "nc_bounds", static_cast<std::int64_t>(i),
           "unit " + unit_str(u) + " outside buffer bounds [" +
               std::to_string(b.nc_lo) + ", " + std::to_string(b.nc_hi) +
               ")");
    }
    if (u.pk_disp < 0 || u.pk_disp + u.length > b.total_bytes) {
      fail(origin, rec, "pk_bounds", static_cast<std::int64_t>(i),
           "unit " + unit_str(u) + " packed side outside [0, " +
               std::to_string(b.total_bytes) + ")");
    }
  }
}

/// Packed-side overlap check on a sorted-by-pk copy; returns the sorted
/// order for further coverage checks.
template <typename Units>
std::vector<std::size_t> check_pk_disjoint(const Units& units,
                                           const char* origin,
                                           obs::Recorder* rec) {
  std::vector<std::size_t> order(units.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t c) {
    return units[a].pk_disp < units[c].pk_disp;
  });
  for (std::size_t i = 1; i < order.size(); ++i) {
    const core::CudaDevDist prev = units[order[i - 1]];
    const core::CudaDevDist cur = units[order[i]];
    if (cur.pk_disp < prev.pk_disp + prev.length) {
      fail(origin, rec, "pk_overlap", static_cast<std::int64_t>(order[i]),
           "pack destinations overlap: " + unit_str(prev) + " and " +
               unit_str(cur));
    }
  }
  return order;
}

}  // namespace

void validate_dev_list(std::span<const core::CudaDevDist> units,
                       const DevListBounds& b, const char* origin,
                       obs::Recorder* rec) {
  check_units(units, b, origin, rec);
  const auto order = check_pk_disjoint(units, origin, rec);
  // Disjoint packed units covering total_bytes in sum cover [0, total)
  // exactly iff they are also gap-free from 0.
  std::int64_t expect = 0;
  for (const std::size_t i : order) {
    if (units[i].pk_disp != expect) {
      fail(origin, rec, "pk_gap", static_cast<std::int64_t>(i),
           "packed coverage gap: expected offset " + std::to_string(expect) +
               ", got " + unit_str(units[i]));
    }
    expect += units[i].length;
  }
  if (expect != b.total_bytes) {
    fail(origin, rec, "pk_coverage", -1,
         "packed bytes " + std::to_string(expect) + " != datatype size " +
             std::to_string(b.total_bytes));
  }
  if (!units.empty()) {
    // A complete list must touch both datatype bounds: that is what makes
    // the unpack coverage equal the type's true extent footprint.
    std::int64_t nc_min = units[0].nc_disp;
    std::int64_t nc_max = units[0].nc_disp + units[0].length;
    for (const auto& u : units) {
      nc_min = std::min(nc_min, u.nc_disp);
      nc_max = std::max(nc_max, u.nc_disp + u.length);
    }
    if (nc_min != b.nc_lo || nc_max != b.nc_hi) {
      fail(origin, rec, "nc_coverage", -1,
           "non-contiguous span [" + std::to_string(nc_min) + ", " +
               std::to_string(nc_max) + ") != true extent [" +
               std::to_string(b.nc_lo) + ", " + std::to_string(b.nc_hi) +
               ")");
    }
  }
}

void validate_dev_window(const core::DevWindow& win, const DevListBounds& b,
                         std::int64_t pk_expected, bool contiguous,
                         const char* origin, obs::Recorder* rec) {
  check_units(win, b, origin, rec);
  if (contiguous) {
    std::int64_t expect = pk_expected;
    for (std::size_t i = 0; i < win.size(); ++i) {
      const core::CudaDevDist u = win[i];
      if (u.pk_disp != expect) {
        fail(origin, rec, "pk_not_contiguous", static_cast<std::int64_t>(i),
             "window pack destination expected " + std::to_string(expect) +
                 ", got " + unit_str(u));
      }
      expect += u.length;
    }
  } else {
    check_pk_disjoint(win, origin, rec);
  }
}

}  // namespace gpuddt::check

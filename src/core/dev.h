// Datatype Engine Vectors (DEVs) and CUDA DEV work units - Section 3.2.
//
// The host walks the stack-based datatype representation and re-encodes it
// as a flat array of <non-contiguous displacement, packed displacement,
// length> tuples. The walk yields maximal contiguous runs
// (mpi::BlockCursor::next_run, the one merge rule the CPU paths share:
// pieces that start where the previous one ended, across blocks, loop
// iterations and elements), and each run is split into work units of at
// most S bytes (`unit_bytes`, the paper's 1KB/2KB/4KB knob), counted from
// the run's start, so each unit maps onto one CUDA warp; because the
// tuples hold only *relative* displacements, a converted array is
// reusable and cacheable (dev_cache.h).
#pragma once

#include <cstdint>
#include <span>

#include "mpi/cursor.h"
#include "mpi/datatype.h"

namespace gpuddt::core {

/// The paper's `cuda_dev_dist`: one work unit for one CUDA warp.
struct CudaDevDist {
  std::int64_t nc_disp = 0;  // displacement within the non-contiguous data
  std::int64_t pk_disp = 0;  // displacement within the packed buffer
  std::int64_t length = 0;   // bytes (<= unit size S)

  bool operator==(const CudaDevDist&) const = default;
};

/// Paper lower bound for S: 8 bytes x 32 lanes = 256 B per warp round.
constexpr std::int64_t kMinUnitBytes = 256;

/// One kernel launch's units, viewed in place in the list that holds
/// them (a DEV-cache entry or the engine op's own unit list): nothing is
/// copied. The first unit's first `skip` bytes were done by an
/// earlier window, and the last unit stops `cut` bytes short of its end
/// (the next window resumes it). A window of one unit has both.
struct DevWindow {
  std::span<const CudaDevDist> units;
  std::int64_t skip = 0;
  std::int64_t cut = 0;

  std::size_t size() const { return units.size(); }

  /// Unit i as the window sees it.
  CudaDevDist operator[](std::size_t i) const {
    CudaDevDist u = units[i];
    if (i == 0) u = {u.nc_disp + skip, u.pk_disp + skip, u.length - skip};
    if (i + 1 == units.size()) u.length -= cut;
    return u;
  }

  /// fn(nc_disp, pk_disp, length) for every unit of the window, in order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    const std::size_t n = units.size();
    if (n == 0) return;
    const CudaDevDist* u = units.data();
    if (n == 1) {
      fn(u->nc_disp + skip, u->pk_disp + skip, u->length - skip - cut);
      return;
    }
    fn(u[0].nc_disp + skip, u[0].pk_disp + skip, u[0].length - skip);
    for (std::size_t i = 1; i + 1 < n; ++i)
      fn(u[i].nc_disp, u[i].pk_disp, u[i].length);
    fn(u[n - 1].nc_disp, u[n - 1].pk_disp, u[n - 1].length - cut);
  }
};

/// Incremental converter from a datatype (for `count` elements) into CUDA
/// DEV work units. Supports partial conversion so the host can pipeline
/// conversion with kernel execution (Section 3.2).
class DevCursor {
 public:
  DevCursor() = default;
  DevCursor(mpi::DatatypePtr dt, std::int64_t count, std::int64_t unit_bytes);

  /// Produce up to out.size() units; returns how many were written. The
  /// units of a run that did not fit are held for the next call.
  std::size_t next_units(std::span<CudaDevDist> out);

  bool done() const { return cursor_.done() && run_cut_ == run_len_; }
  std::int64_t bytes_emitted() const { return packed_off_; }
  std::int64_t total_bytes() const { return cursor_.total_bytes(); }

  /// Contiguous runs walked so far (host traversal cost accounting). A
  /// run counts once, with its first unit, however many pieces it merged
  /// and units it was cut into; emission cost is charged per unit
  /// separately.
  std::int64_t pieces_visited() const { return pieces_; }

 private:
  mpi::BlockCursor cursor_;
  std::int64_t unit_bytes_ = 1024;
  std::int64_t packed_off_ = 0;
  std::int64_t pieces_ = 0;
  // The current run: source bytes [run_nc_, run_nc_ + run_len_), of
  // which the first run_cut_ are already emitted.
  std::int64_t run_nc_ = 0;
  std::int64_t run_len_ = 0;
  std::int64_t run_cut_ = 0;
};

/// Convert a whole datatype in one shot (cache fill, tests).
std::vector<CudaDevDist> convert_all(const mpi::DatatypePtr& dt,
                                     std::int64_t count,
                                     std::int64_t unit_bytes);

}  // namespace gpuddt::core

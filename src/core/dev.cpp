#include "core/dev.h"

#include <algorithm>
#include <stdexcept>

namespace gpuddt::core {

DevCursor::DevCursor(mpi::DatatypePtr dt, std::int64_t count,
                     std::int64_t unit_bytes)
    // The program is canonical: structurally equal types compile to
    // identical unit lists, which is what lets the DEV cache key on the
    // shape digest (dev_cache.h) rather than type identity.
    : cursor_(std::move(dt), count), unit_bytes_(unit_bytes) {
  if (unit_bytes < kMinUnitBytes)
    throw std::invalid_argument("DevCursor: unit size below 256B warp floor");
}

std::size_t DevCursor::next_units(std::span<CudaDevDist> out) {
  std::size_t n = 0;
  while (n < out.size()) {
    if (run_cut_ == run_len_) {
      mpi::Block run;
      if (!cursor_.next_run(INT64_MAX, &run)) break;
      run_nc_ = run.offset;
      run_len_ = run.len;
      run_cut_ = 0;
      ++pieces_;  // one walk step per run, booked with its first unit
    }
    const std::int64_t len = std::min(unit_bytes_, run_len_ - run_cut_);
    out[n++] = {run_nc_ + run_cut_, packed_off_, len};
    run_cut_ += len;
    packed_off_ += len;
  }
  return n;
}

std::vector<CudaDevDist> convert_all(const mpi::DatatypePtr& dt,
                                     std::int64_t count,
                                     std::int64_t unit_bytes) {
  DevCursor cur(dt, count, unit_bytes);
  std::vector<CudaDevDist> units;
  const std::int64_t total = cur.total_bytes();
  if (total > 0) units.reserve(static_cast<std::size_t>(total / unit_bytes + 16));
  CudaDevDist buf[256];
  for (;;) {
    const std::size_t n = cur.next_units(buf);
    if (n == 0) break;
    units.insert(units.end(), buf, buf + n);
  }
  return units;
}

}  // namespace gpuddt::core

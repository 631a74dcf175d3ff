// The host (CPU) datatype engine: pack/unpack between a typed user buffer
// and a contiguous byte buffer. This is Open MPI's classic convertor - the
// reference implementation every GPU path is validated against, the engine
// used for host-resident data, and the "CPU" series of the paper's
// benchmarks.
//
// Both directions support partial progress through an explicit cursor, so
// the PML can fragment large messages.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "mpi/cursor.h"
#include "mpi/datatype.h"

namespace gpuddt::mpi {

struct PackStats {
  std::int64_t bytes = 0;
  // Contiguous runs copied, one memcpy and one host walk step each
  // (BlockCursor::next_run). A run that the byte budget cuts counts in
  // each call that copies part of it.
  std::int64_t runs = 0;
};

/// Gather at most `out.size()` bytes from `src` (laid out as `cursor`'s
/// datatype) into `out`, advancing the cursor one run per memcpy.
/// Returns what was moved.
PackStats cpu_pack_some(BlockCursor& cursor, const void* src,
                        std::span<std::byte> out);

/// Scatter at most `in.size()` bytes from `in` into `dst`, advancing the
/// cursor.
PackStats cpu_unpack_some(BlockCursor& cursor, std::span<const std::byte> in,
                          void* dst);

/// Whole-datatype convenience wrappers. `out` / `in` must hold exactly
/// dt->size() * count bytes.
PackStats cpu_pack(const DatatypePtr& dt, std::int64_t count, const void* src,
                   std::span<std::byte> out);
PackStats cpu_unpack(const DatatypePtr& dt, std::int64_t count,
                     std::span<const std::byte> in, void* dst);

}  // namespace gpuddt::mpi

// GPU pack/unpack kernels - Sections 3.1 and 3.2.
//
// Two kernel families, mirroring the paper (each kernel's trailing
// `triggered_at` forwards to sg::LaunchKernel: non-null marks the launch
// as pre-enqueued by a stream-triggered chain, so no host clock charge):
//  * vector kernels - specialized for blocklength/stride layouts; driven
//    directly by the pattern, no descriptor array needed (Section 3.1);
//  * DEV kernels - generic, driven by an array of CudaDevDist work units
//    resident in device memory, one unit per warp (Section 3.2).
//
// Both share one gather/scatter body, and pack and unpack differ only in
// which side is the packed buffer. A launch walks its pieces once: each
// piece is copied, priced into a transaction-accurate KernelProfile
// (128-byte line counting on both the gather and scatter side, 8 bytes
// per lane, 256-byte warp rounds) and, under the access checker, listed
// as ranges in the same pass; then the launch is timed. On the host,
// pricing a piece is a few adds and shifts, so a kernel costs its copies
// plus a constant per launch. The profiles are what make the simulated
// Figure 6 behave like the paper's: aligned vectors reach ~94% of
// cudaMemcpy, triangular-matrix columns drift off transaction boundaries
// and lose ~15%, and the stair-shaped triangle recovers.
#pragma once

#include <cstdint>

#include "core/dev.h"
#include "mpi/datatype.h"
#include "simgpu/runtime.h"
#include "simgpu/stream.h"

namespace gpuddt::core {

/// kPack gathers the user buffer's pieces into the packed buffer; kUnpack
/// scatters the packed buffer back into them.
enum class Dir : std::uint8_t { kPack, kUnpack };

/// Move the packed-byte subrange [pk_lo, pk_hi) of a strided layout
/// between the user buffer at `user_base` (the pattern's displacements are
/// relative to it) and `packed`, which holds packed byte pk_lo at offset
/// 0. Returns the kernel's virtual finish time.
vt::Time vector_kernel(sg::HostContext& ctx, sg::Stream& stream, Dir dir,
                       void* user_base, const mpi::RegularPattern& pat,
                       std::int64_t pk_lo, std::int64_t pk_hi, void* packed,
                       int blocks, const vt::Time* triggered_at = nullptr);

/// Move the units of a window between user_base + u.nc_disp and
/// packed + (u.pk_disp - pk_base) for each unit u as the window cuts it.
/// `device_units` is the device-resident copy of `win.units` the real
/// kernel would read (its traffic is charged; the window's skip and cut
/// would be scalar kernel arguments); the functional copy reads the
/// host-visible list the window views.
vt::Time dev_kernel(sg::HostContext& ctx, sg::Stream& stream, Dir dir,
                    void* user_base, const DevWindow& win,
                    std::int64_t pk_base, void* packed,
                    const CudaDevDist* device_units, int blocks,
                    const vt::Time* triggered_at = nullptr);

}  // namespace gpuddt::core

// GPU pack/unpack kernels - Sections 3.1 and 3.2.
//
// Two kernel families, mirroring the paper (each wrapper's trailing
// `triggered_at` forwards to sg::LaunchKernel: non-null marks the launch
// as pre-enqueued by a stream-triggered chain, so no host clock charge):
//  * vector kernels - specialized for blocklength/stride layouts; driven
//    directly by the pattern, no descriptor array needed (Section 3.1);
//  * DEV kernels - generic, driven by an array of CudaDevDist work units
//    resident in device memory, one unit per warp (Section 3.2).
//
// Each wrapper computes a transaction-accurate KernelProfile (128-byte
// line counting on both the gather and scatter side, 8 bytes per lane,
// 256-byte warp rounds) and performs the functional byte movement. On
// the host, pricing a piece is a few adds and shifts, so a kernel costs
// its copies plus a constant per launch. The
// profiles are what make the simulated Figure 6 behave like the paper's:
// aligned vectors reach ~94% of cudaMemcpy, triangular-matrix columns
// drift off transaction boundaries and lose ~15%, and the stair-shaped
// triangle recovers.
#pragma once

#include <cstdint>
#include <span>

#include "core/dev.h"
#include "mpi/datatype.h"
#include "simgpu/runtime.h"
#include "simgpu/stream.h"

namespace gpuddt::core {

/// Pack the packed-byte subrange [pk_lo, pk_hi) of a strided layout into
/// `dst` (which receives packed byte pk_lo at offset 0). `src_base` is the
/// user buffer the pattern displacements are relative to. Returns the
/// kernel's virtual finish time.
vt::Time pack_vector_kernel(sg::HostContext& ctx, sg::Stream& stream,
                            const void* src_base,
                            const mpi::RegularPattern& pat, std::int64_t pk_lo,
                            std::int64_t pk_hi, void* dst, int blocks,
                            const vt::Time* triggered_at = nullptr);

/// Inverse: scatter `src` (holding packed bytes [pk_lo, pk_hi)) back into
/// the strided layout at `dst_base`.
vt::Time unpack_vector_kernel(sg::HostContext& ctx, sg::Stream& stream,
                              void* dst_base, const mpi::RegularPattern& pat,
                              std::int64_t pk_lo, std::int64_t pk_hi,
                              const void* src, int blocks,
                              const vt::Time* triggered_at = nullptr);

/// Pack the units of a window: gather src_base + u.nc_disp into
/// dst + (u.pk_disp - pk_base) for each unit u as the window cuts it.
/// `device_units` is the device-resident copy of `win.units` the real
/// kernel would read (its traffic is charged; the window's skip and cut
/// would be scalar kernel arguments); the functional copy reads the
/// host-visible list the window views.
vt::Time pack_dev_kernel(sg::HostContext& ctx, sg::Stream& stream,
                         const void* src_base, const DevWindow& win,
                         std::int64_t pk_base, void* dst,
                         const CudaDevDist* device_units, int blocks,
                         const vt::Time* triggered_at = nullptr);

/// Inverse: scatter src + (u.pk_disp - pk_base) into dst_base + u.nc_disp.
vt::Time unpack_dev_kernel(sg::HostContext& ctx, sg::Stream& stream,
                           void* dst_base, const DevWindow& win,
                           std::int64_t pk_base, const void* src,
                           const CudaDevDist* device_units, int blocks,
                           const vt::Time* triggered_at = nullptr);

}  // namespace gpuddt::core

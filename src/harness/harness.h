// Measurement harness shared by the benchmark binaries and the
// timing-model tests: virtual-time ping-pong between two ranks, and
// pack/unpack micro-measurements against a single engine (the paper's
// Section 5.1 methodology). All results are virtual nanoseconds from the
// simulation's calibrated cost model.
#pragma once

#include <cstdint>
#include <memory>

#include "core/engine.h"
#include "mpi/pml.h"
#include "mpi/runtime.h"

namespace gpuddt::harness {

// --- Ping-pong (Sections 5.2-5.4) ---------------------------------------------

struct PingPongSpec {
  mpi::RuntimeConfig cfg;
  mpi::DatatypePtr dt0;  // rank 0's datatype
  mpi::DatatypePtr dt1;  // rank 1's datatype
  std::int64_t count0 = 1;
  std::int64_t count1 = 1;
  bool device0 = true;  // buffer placement per rank
  bool device1 = true;
  int iters = 4;
  int warmup = 1;  // fills DEV caches and the IPC registration cache
  /// nullptr = the paper's GpuDatatypePlugin; otherwise e.g. the
  /// MVAPICH-style baseline.
  std::shared_ptr<mpi::GpuTransferPlugin> plugin;
  /// Optional perturbation run by rank 0 each iteration before
  /// the send (e.g. a co-running compute kernel, Section 5.4).
  std::function<void(mpi::Process&)> background;
};

struct PingPongResult {
  vt::Time avg_roundtrip = 0;  // virtual ns per ping-pong round trip
  std::int64_t message_bytes = 0;
  /// Payload bandwidth in GB/s: 2 * message_bytes / avg_roundtrip.
  double bandwidth_gbps() const {
    if (avg_roundtrip <= 0) return 0.0;
    return 2.0 * static_cast<double>(message_bytes) /
           static_cast<double>(avg_roundtrip);
  }
};

PingPongResult run_pingpong(const PingPongSpec& spec);

// --- Engine micro-measurements (Section 5.1) ---------------------------------------

enum class PackTarget {
  kDevice,      // d2d: pack into a local device buffer
  kDeviceHost,  // d2d2h: pack to device, then explicit D2H
  kZeroCopy,    // cpy: pack straight into a UMA-mapped host buffer
};

struct PackBenchSpec {
  mpi::DatatypePtr dt;
  std::int64_t count = 1;
  core::EngineConfig engine;
  sg::MachineConfig machine;
  PackTarget target = PackTarget::kDevice;
  bool unpack_too = true;  // measure pack + unpack like the paper
  int iters = 3;
  int warmup = 0;  // >0 pre-fills the DEV cache ("cached" series)
};

struct PackBenchResult {
  vt::Time avg_ns = 0;  // pack (+unpack) per iteration
  std::int64_t bytes = 0;
  /// Payload GB/s of the pack alone: bytes / avg over the pack phase.
  vt::Time avg_pack_ns = 0;
  double pack_bandwidth_gbps() const {
    if (avg_pack_ns <= 0) return 0.0;
    return static_cast<double>(bytes) / static_cast<double>(avg_pack_ns);
  }
};

PackBenchResult run_pack_bench(const PackBenchSpec& spec);

/// Kernel-only bandwidth of packing (dt, count) with the given engine
/// config, excluding conversion (descriptors are prepared up front) -
/// what Figure 6 plots. Returns payload GB/s.
double kernel_pack_bandwidth(const mpi::DatatypePtr& dt, std::int64_t count,
                             const core::EngineConfig& engine,
                             const sg::MachineConfig& machine);

/// Practical peak: payload GB/s of a cudaMemcpy D2D of the same size.
double memcpy_d2d_bandwidth(std::int64_t bytes,
                            const sg::MachineConfig& machine);

}  // namespace gpuddt::harness

// Calibrated performance model for the simulated GPU machine.
//
// Every constant below is a knob; the defaults are calibrated to the
// NVIDIA PSG cluster the paper evaluates on (Kepler K40 GPUs, CUDA 7.0,
// PCI-E gen3, FDR InfiniBand) so that the benchmark harness reproduces the
// *shapes* of the paper's figures: who wins, by what factor, and where the
// crossovers fall. The functional side of every operation (actual byte
// movement) is independent of this model, so tests remain exact.
//
// Conventions:
//  * Bandwidths are in GB/s = 1e9 bytes per second.
//  * A device-to-device copy of B bytes reads B and writes B, so it
//    occupies 2*B bytes of memory-system traffic; reported "bandwidth" in
//    the figure harnesses follows the paper and divides the *payload*
//    bytes moved per direction by time.
//  * Device memory is accessed in 128-byte transactions; host-mapped
//    (zero-copy) memory moves over PCI-E in cacheline-sized bursts.
#pragma once

#include <bit>
#include <cstdint>
#include <stdexcept>

#include "vtime/vclock.h"

namespace gpuddt::sg {

struct CostModel {
  // --- GPU memory system -------------------------------------------------
  /// Sustained device-memory byte rate (read+write traffic combined).
  /// K40: 288 GB/s theoretical, ~2*180 GB/s practical copy traffic.
  double gpu_mem_gbps = 360.0;
  /// Device memory transaction granularity (bytes).
  int mem_txn_bytes = 128;
  /// Relative inefficiency of an SM-driven copy kernel versus the DMA copy
  /// engine (issue latency, address arithmetic, imperfect ILP). This is
  /// what caps a perfectly coalesced pack kernel at ~94% of cudaMemcpy.
  double kernel_mem_inefficiency = 0.064;

  // --- Kernel execution ---------------------------------------------------
  /// End-to-end kernel launch latency (driver + device scheduling).
  vt::Time kernel_launch_ns = vt::usec(6.5);
  /// Host-side cost of enqueuing any async operation.
  vt::Time enqueue_ns = vt::usec(1.2);
  /// Copy throughput a single SM sustains (read+write traffic). With 15
  /// SMs this exceeds gpu_mem_gbps, so full-width kernels are memory
  /// bound, while narrow launches (the Section 5.3 resource sweep) scale
  /// roughly linearly until saturation.
  double sm_copy_gbps = 26.0;

  // --- Copy engine (cudaMemcpy) -------------------------------------------
  /// Fixed cost of a cudaMemcpy call (driver + DMA descriptor setup).
  vt::Time memcpy_call_ns = vt::usec(6.0);
  /// Per-row descriptor cost of cudaMemcpy2D. Pitched copies are a
  /// single DMA descriptor, so the per-row cost is tiny; the interesting
  /// behaviour is the granule penalty below (Figure 8).
  double memcpy2d_row_ns = 1.5;
  /// cudaMemcpy2D moves rows in 64-byte granules; rows whose width is not
  /// a multiple of this suffer read-modify-write behaviour on top of the
  /// granule rounding (the Figure 8 regression).
  int memcpy2d_granule = 64;
  double memcpy2d_misaligned_penalty = 2.4;

  // --- PCI-Express ----------------------------------------------------------
  /// Host <-> device sustained bandwidth (gen3 x16, K40 era).
  double pcie_h2d_gbps = 10.2;
  double pcie_d2h_gbps = 10.6;
  /// Device <-> device peer bandwidth through the PCI-E switch. The paper
  /// (citing [18]) notes GPU-GPU PCI-E bandwidth exceeds CPU-GPU.
  double pcie_peer_gbps = 12.0;
  /// Effective bandwidth of a *kernel* dereferencing IPC-mapped peer
  /// memory: many small transactions under-utilize PCI-E, which is why the
  /// paper's receiver stages packed fragments into a local GPU buffer
  /// before unpacking (10-20% faster, Section 5.2).
  double kernel_peer_gbps = 8.0;
  /// Latency of starting a PCI-E DMA transfer.
  vt::Time pcie_latency_ns = vt::usec(4.5);

  // --- Interconnect ---------------------------------------------------------
  /// FDR InfiniBand point-to-point.
  double ib_gbps = 5.8;
  vt::Time ib_latency_ns = vt::usec(1.7);
  /// Per-message CPU overhead of posting a network operation.
  vt::Time ib_post_ns = vt::usec(0.9);
  /// Shared-memory (intra-node, host path) BTL copy bandwidth and latency.
  double sm_gbps = 6.0;
  vt::Time sm_latency_ns = vt::usec(0.6);

  // --- CUDA IPC / GPUDirect ---------------------------------------------------
  /// One-time cost of cudaIpcOpenMemHandle (cached afterwards).
  vt::Time ipc_open_ns = vt::usec(90.0);
  vt::Time ipc_get_handle_ns = vt::usec(3.0);

  // --- Stream-triggered chains -------------------------------------------------
  /// Propagation latency of a stream-ordered wait whose event was recorded
  /// on a *different* device's timeline (or by the NIC): the doorbell /
  /// completion-flag write crosses the PCI-E switch before the waiting
  /// queue can observe it. Same-device event waits remain free - they are
  /// resolved inside one device's scheduler. This is the per-dependency
  /// cost of the stream-triggered fragment chains (docs/protocols.md),
  /// replacing the far larger per-fragment host AM round-trips. A single
  /// posted doorbell write plus the waiting queue's poll observing it -
  /// no host software dispatch - so it sits below sm_latency_ns (an AM
  /// hop that does run a host handler).
  vt::Time cross_event_wait_ns = vt::usec(0.5);

  // --- Host CPU ---------------------------------------------------------------
  /// Single-core host memcpy/pack bandwidth.
  double cpu_copy_gbps = 6.0;
  /// Host-side datatype-stack traversal: cost per contiguous block visited.
  double cpu_block_walk_ns = 3.0;
  /// Host-side cost of emitting one CUDA DEV work-unit descriptor.
  /// Calibrated so that full conversion of an indexed type costs about as
  /// much as its pack kernel - the regime where the paper's conversion /
  /// kernel pipelining "almost doubles" performance (Figure 7).
  double cpu_dev_emit_ns = 4.0;

  // Derived helpers ------------------------------------------------------------

  /// Duration of a DMA copy moving `bytes` within one device.
  vt::Time d2d_copy_ns(std::int64_t bytes) const {
    return vt::transfer_time(2 * bytes, gpu_mem_gbps);
  }

  vt::Time h2d_ns(std::int64_t bytes) const {
    return vt::transfer_time(bytes, pcie_h2d_gbps);
  }
  vt::Time d2h_ns(std::int64_t bytes) const {
    return vt::transfer_time(bytes, pcie_d2h_gbps);
  }
  vt::Time peer_ns(std::int64_t bytes) const {
    return vt::transfer_time(bytes, pcie_peer_gbps);
  }

  vt::Time cpu_copy_ns(std::int64_t bytes) const {
    return vt::transfer_time(bytes, cpu_copy_gbps);
  }

  /// log2(mem_txn_bytes): lines are counted by shifting, so a line size
  /// that is not a power of two throws std::invalid_argument here.
  int txn_shift() const {
    const auto bytes = static_cast<unsigned>(mem_txn_bytes);
    if (mem_txn_bytes <= 0 || !std::has_single_bit(bytes)) {
      throw std::invalid_argument(
          "CostModel: mem_txn_bytes must be a power of two");
    }
    return std::countr_zero(bytes);
  }

  /// Number of `mem_txn_bytes`-sized lines touched by [offset, offset+len).
  std::int64_t txn_lines(std::int64_t offset, std::int64_t len) const {
    return txn_lines(offset, len, txn_shift());
  }

  /// The same count for lines of 2^shift bytes (a kernel takes the shift
  /// once and counts every range with it). A line index truncates toward
  /// zero, as integer division does: a negative index is biased by
  /// 2^shift - 1 before the arithmetic shift. So a range before the base
  /// pointer, (-2^shift, 0), shares line 0 with [0, 2^shift).
  static std::int64_t txn_lines(std::int64_t offset, std::int64_t len,
                                int shift) {
    if (len <= 0) return 0;
    const std::int64_t bias = (std::int64_t{1} << shift) - 1;
    const auto line = [&](std::int64_t x) {
      return (x + ((x >> 63) & bias)) >> shift;
    };
    return line(offset + len - 1) - line(offset) + 1;
  }
};

}  // namespace gpuddt::sg

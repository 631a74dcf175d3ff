// Unit tests of the calibrated cost model itself: the arithmetic every
// timing figure rests on.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "simgpu/cost_model.h"
#include "simgpu/runtime.h"

namespace gpuddt::sg {
namespace {

TEST(CostModel, TransactionLineCounting) {
  CostModel cm;
  EXPECT_EQ(cm.txn_lines(0, 0), 0);
  EXPECT_EQ(cm.txn_lines(0, 1), 1);
  EXPECT_EQ(cm.txn_lines(0, 128), 1);
  EXPECT_EQ(cm.txn_lines(0, 129), 2);
  EXPECT_EQ(cm.txn_lines(127, 2), 2);    // straddles a line boundary
  EXPECT_EQ(cm.txn_lines(8, 1024), 9);   // misaligned 1KB: 9 lines
  EXPECT_EQ(cm.txn_lines(128, 1024), 8); // aligned 1KB: 8 lines
  // A line index truncates toward zero, so a range before the base
  // pointer shares line 0 with [0, 128): (-127, 128) is one line.
  EXPECT_EQ(cm.txn_lines(-127, 255), 1);
  EXPECT_EQ(cm.txn_lines(-128, 1), 1);
  EXPECT_EQ(cm.txn_lines(-128, 2), 2);  // -128 starts line -1

  // Lines are counted by shifting; the reference is the truncating
  // division they were counted with before, for every power-of-two line
  // size and for offsets on both sides of the base and past 2^31.
  const auto reference = [](std::int64_t off, std::int64_t len,
                            std::int64_t line) -> std::int64_t {
    if (len <= 0) return 0;
    return (off + len - 1) / line - off / line + 1;
  };
  constexpr std::int64_t k2G = std::int64_t{1} << 31;
  const std::int64_t far[] = {k2G - 1,       k2G,          k2G + 77,
                              3 * k2G + 5,   -k2G - 3,     (k2G << 9) + 200};
  for (const int line : {32, 64, 128, 256}) {
    cm.mem_txn_bytes = line;
    std::int64_t mismatches = 0;
    std::string first;
    const auto check = [&](std::int64_t off, std::int64_t len) {
      const std::int64_t got = cm.txn_lines(off, len);
      const std::int64_t want = reference(off, len, line);
      if (got != want && mismatches++ == 0) {
        first = "line " + std::to_string(line) + " off " +
                std::to_string(off) + " len " + std::to_string(len) +
                ": " + std::to_string(got) + " != " + std::to_string(want);
      }
    };
    for (std::int64_t off = -1024; off < 1024; ++off)
      for (std::int64_t len = 1; len <= 1024; ++len) check(off, len);
    for (const std::int64_t off : far)
      for (std::int64_t len = 1; len <= 1024; ++len) check(off, len);
    EXPECT_EQ(mismatches, 0) << first;
  }

  // A line size that is not a power of two cannot be counted by shifts.
  cm.mem_txn_bytes = 96;
  EXPECT_THROW(cm.txn_lines(0, 1), std::invalid_argument);
}

TEST(CostModel, D2DCopyCountsBothDirections) {
  CostModel cm;
  // duration = 2*bytes / gpu_mem_gbps
  EXPECT_EQ(cm.d2d_copy_ns(360), 2);
  EXPECT_EQ(cm.d2d_copy_ns(0), 0);
}

TEST(CostModel, PcieAsymmetry) {
  CostModel cm;
  EXPECT_GT(cm.h2d_ns(1 << 20), 0);
  // d2h is configured slightly faster than h2d on this platform.
  EXPECT_LE(cm.d2h_ns(1 << 20), cm.h2d_ns(1 << 20));
}

TEST(CostModel, KernelDurationMemoryBoundAtFullWidth) {
  CostModel cm;
  KernelProfile prof;
  prof.device_txn_bytes = 64 << 20;
  prof.blocks = 64;
  const vt::Time d = KernelDuration(cm, prof, 15);
  const vt::Time mem = static_cast<vt::Time>(
      static_cast<double>(vt::transfer_time(64 << 20, cm.gpu_mem_gbps)) *
      (1.0 + cm.kernel_mem_inefficiency));
  EXPECT_EQ(d, cm.kernel_launch_ns + mem);
}

TEST(CostModel, KernelDurationComputeBoundWhenNarrow) {
  CostModel cm;
  KernelProfile prof;
  prof.device_txn_bytes = 64 << 20;
  prof.blocks = 1;
  const vt::Time d = KernelDuration(cm, prof, 15);
  const vt::Time compute = vt::transfer_time(64 << 20, cm.sm_copy_gbps);
  EXPECT_EQ(d, cm.kernel_launch_ns + compute);
}

TEST(CostModel, KernelDurationScalesWithWidthUntilSaturation) {
  CostModel cm;
  KernelProfile prof;
  prof.device_txn_bytes = 64 << 20;
  vt::Time prev = 0;
  for (int blocks : {1, 2, 4, 8}) {
    prof.blocks = blocks;
    const vt::Time d = KernelDuration(cm, prof, 15);
    if (prev != 0) {
      EXPECT_LT(d, prev);
    }
    prev = d;
  }
  // Beyond memory saturation, wider stops helping.
  prof.blocks = 15;
  const vt::Time full = KernelDuration(cm, prof, 15);
  prof.blocks = 64;
  EXPECT_EQ(KernelDuration(cm, prof, 15), full);
}

TEST(CostModel, ZeroCopyKernelBoundedByPcie) {
  CostModel cm;
  KernelProfile prof;
  prof.device_txn_bytes = 1 << 20;
  prof.pcie_bytes = 64 << 20;  // pcie side dominates
  prof.pcie_dir = PcieDir::kToHost;
  prof.blocks = 15;
  const vt::Time d = KernelDuration(cm, prof, 15);
  EXPECT_EQ(d, cm.kernel_launch_ns +
                   vt::transfer_time(64 << 20, cm.pcie_d2h_gbps));
}

TEST(CostModel, PeerKernelSlowerThanDmaPeerCopy) {
  // Kernels dereferencing IPC-mapped peer memory get less bandwidth than
  // the DMA peer copy - the reason the receiver stages locally.
  CostModel cm;
  EXPECT_LT(cm.kernel_peer_gbps, cm.pcie_peer_gbps);
}

TEST(CostModel, SmArrayCanSaturateMemory) {
  // 15 SMs x sm_copy_gbps must exceed the memory system's effective rate,
  // otherwise full-width kernels would be compute bound and Figure 6's
  // 94% could never be reached.
  CostModel cm;
  EXPECT_GT(15.0 * cm.sm_copy_gbps,
            cm.gpu_mem_gbps * (1.0 + cm.kernel_mem_inefficiency));
}

TEST(CostModel, ConversionCheaperThanCopyPerByte) {
  // Emitting one descriptor (covering up to S bytes) must cost far less
  // than moving those bytes over PCI-E, or pipelining could never win.
  CostModel cm;
  const double emit_per_byte = cm.cpu_dev_emit_ns / 1024.0;
  const double pcie_per_byte = 1.0 / cm.pcie_d2h_gbps;
  EXPECT_LT(emit_per_byte, pcie_per_byte);
}

TEST(CostModel, Memcpy2dGranulePenaltyConfigured) {
  CostModel cm;
  EXPECT_EQ(cm.memcpy2d_granule, 64);
  EXPECT_GT(cm.memcpy2d_misaligned_penalty, 1.0);
}

}  // namespace
}  // namespace gpuddt::sg

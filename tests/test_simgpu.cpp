#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "simgpu/arena.h"
#include "simgpu/machine.h"
#include "simgpu/runtime.h"
#include "simgpu/stream.h"
#include "test_helpers.h"

namespace gpuddt::sg {
namespace {

// --- Arena ---------------------------------------------------------------------

TEST(Arena, AllocateReturnsAlignedPointers) {
  Arena a(1 << 20);
  void* p = a.allocate(100);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % Arena::kAlign, 0u);
  void* q = a.allocate(100);
  EXPECT_NE(p, q);
}

TEST(Arena, ContainsDetectsOwnership) {
  Arena a(1 << 16);
  std::byte* p = a.allocate(64);
  EXPECT_TRUE(a.contains(p));
  EXPECT_TRUE(a.contains(p + 63));
  int x;
  EXPECT_FALSE(a.contains(&x));
}

TEST(Arena, FreeingCoalescesNeighbors) {
  Arena a(4096);
  // Fill the arena, free everything, and re-allocate the full size.
  std::byte* p1 = a.allocate(1024);
  std::byte* p2 = a.allocate(1024);
  std::byte* p3 = a.allocate(1024);
  a.deallocate(p2);
  a.deallocate(p1);
  a.deallocate(p3);
  EXPECT_EQ(a.bytes_in_use(), 0u);
  EXPECT_NO_THROW(a.allocate(4096));
}

TEST(Arena, ExhaustionThrowsBadAlloc) {
  Arena a(4096);
  a.allocate(4096);
  EXPECT_THROW(a.allocate(1), std::bad_alloc);
}

TEST(Arena, DoubleFreeThrows) {
  Arena a(4096);
  std::byte* p = a.allocate(64);
  a.deallocate(p);
  EXPECT_THROW(a.deallocate(p), std::invalid_argument);
}

TEST(Arena, AllocationSizeTracksRoundedSize) {
  Arena a(1 << 16);
  std::byte* p = a.allocate(100);
  EXPECT_GE(a.allocation_size(p), 100u);
  EXPECT_EQ(a.allocation_size(p + 1), 0u);  // interior pointer
}

// --- Machine / registry ----------------------------------------------------------

TEST(Machine, ClassifiesDevicePointersPerDevice) {
  Machine m(test::machine_config(2));
  HostContext c0(m, 0), c1(m, 1);
  void* d0 = Malloc(c0, 256);
  void* d1 = Malloc(c1, 256);
  EXPECT_EQ(m.query(d0).space, MemorySpace::kDevice);
  EXPECT_EQ(m.query(d0).device, 0);
  EXPECT_EQ(m.query(d1).device, 1);
}

TEST(Machine, ClassifiesHostAllocations) {
  Machine m;
  HostContext c(m, 0);
  void* pinned = HostAlloc(c, 128, false);
  void* mapped = HostAlloc(c, 128, true);
  int stack_var = 0;
  EXPECT_EQ(m.query(pinned).space, MemorySpace::kPinnedHost);
  EXPECT_EQ(m.query(mapped).space, MemorySpace::kMappedHost);
  EXPECT_EQ(m.query(&stack_var).space, MemorySpace::kUnregisteredHost);
  HostFree(c, pinned);
  HostFree(c, mapped);
}

TEST(Machine, InteriorHostPointerResolves) {
  Machine m;
  HostContext c(m, 0);
  auto* p = static_cast<std::byte*>(HostAlloc(c, 128, true));
  EXPECT_EQ(m.query(p + 64).space, MemorySpace::kMappedHost);
  EXPECT_EQ(m.query(p + 128).space, MemorySpace::kUnregisteredHost);
  HostFree(c, p);
}

TEST(Machine, FreeRejectsNonDevicePointer) {
  Machine m;
  HostContext c(m, 0);
  int x;
  EXPECT_THROW(Free(c, &x), std::invalid_argument);
}

// --- Arena storage reuse and the poison fill -------------------------------------

/// A machine shape no other test in this binary builds.
MachineConfig pooled_config(int check = -1) {
  MachineConfig cfg = test::machine_config(2, std::size_t{5} << 20);
  cfg.check = check;
  return cfg;
}

bool all_poison(const void* p, std::size_t bytes) {
  const auto* b = static_cast<const std::byte*>(p);
  return std::all_of(b, b + bytes,
                     [](std::byte x) { return x == kPoisonByte; });
}

TEST(ArenaPool, NextMachineOfOneShapeReusesStorage) {
  // Checker off on both machines, so no poison hides the reused bytes.
  std::vector<std::byte*> bases;
  {
    Machine m(pooled_config(/*check=*/0));
    for (int d = 0; d < 2; ++d) {
      bases.push_back(m.device(d).arena().base());
      HostContext c(m, d);
      // Still allocated when the machine goes away.
      std::memset(Malloc(c, 4096), 0x11 + d, 4096);
    }
  }
  Machine m(pooled_config(/*check=*/0));
  for (int d = 0; d < 2; ++d) {
    Arena& a = m.device(d).arena();
    EXPECT_EQ(a.base(), bases[static_cast<std::size_t>(d)]);
    EXPECT_EQ(a.bytes_in_use(), 0u);
    HostContext c(m, d);
    const auto* p = static_cast<const std::byte*>(Malloc(c, 100));
    EXPECT_EQ(p, a.base());
    // The same pages, not a new mapping at the same address.
    EXPECT_EQ(p[0], std::byte(0x11 + d));
  }
}

TEST(ArenaPool, MachineOfAnotherCapacityAllocatesAndFrees) {
  { Machine pooled(pooled_config()); }
  const std::size_t cap = std::size_t{3} << 20;
  Machine m(test::machine_config(2, cap));
  HostContext c(m, 1);
  Arena& a = m.device(1).arena();
  ASSERT_EQ(a.capacity(), cap);
  void* p = Malloc(c, 1 << 20);
  void* q = Malloc(c, 2 << 20);
  std::memset(p, 1, 1 << 20);
  std::memset(q, 2, 2 << 20);
  EXPECT_THROW(Malloc(c, 1), std::bad_alloc);
  Free(c, p);
  Free(c, q);
  EXPECT_EQ(a.bytes_in_use(), 0u);
  EXPECT_EQ(Malloc(c, cap), a.base());
}

TEST(ArenaPool, FreshAllocationsArePoisonUnderTheChecker) {
  constexpr std::size_t kBytes = 8192;
  void* written = nullptr;
  {
    Machine m(pooled_config(/*check=*/1));
    HostContext c(m, 0);
    written = Malloc(c, kBytes);
    std::memset(written, 0x11, kBytes);
    void* h = HostAlloc(c, kBytes);
    std::memset(h, 0x11, kBytes);
    HostFree(c, h);
  }
  Machine m(pooled_config(/*check=*/1));
  HostContext c(m, 0);
  void* d = Malloc(c, kBytes);
  ASSERT_EQ(d, written);  // the storage the first machine wrote
  EXPECT_TRUE(all_poison(d, kBytes));
  void* h = HostAlloc(c, kBytes);
  EXPECT_TRUE(all_poison(h, kBytes));
  std::memset(d, 0x11, kBytes);
  Free(c, d);
  void* again = Malloc(c, kBytes);
  ASSERT_EQ(again, d);
  EXPECT_TRUE(all_poison(again, kBytes));
  HostFree(c, h);
}

// --- Copies: functional + timing --------------------------------------------------

class CopyTest : public ::testing::Test {
 protected:
  Machine m{test::machine_config(2)};
  HostContext ctx{m, 0};
};

TEST_F(CopyTest, H2DandD2HRoundTripBytes) {
  std::vector<std::byte> host(4096);
  test::fill_pattern(host.data(), host.size(), 1);
  void* dev = Malloc(ctx, 4096);
  Memcpy(ctx, dev, host.data(), 4096);
  std::vector<std::byte> back(4096);
  Memcpy(ctx, back.data(), dev, 4096);
  EXPECT_EQ(std::memcmp(host.data(), back.data(), 4096), 0);
}

TEST_F(CopyTest, H2DCostsPcieTime) {
  std::vector<std::byte> host(1 << 20);
  void* dev = Malloc(ctx, 1 << 20);
  const vt::Time t0 = ctx.clock.now();
  Memcpy(ctx, dev, host.data(), 1 << 20);
  const vt::Time dt = ctx.clock.now() - t0;
  const vt::Time expected = vt::transfer_time(1 << 20, ctx.cost().pcie_h2d_gbps);
  EXPECT_GT(dt, expected);  // overheads included
  EXPECT_LT(dt, expected + vt::usec(30));
}

TEST_F(CopyTest, D2DUsesFullDeviceBandwidth) {
  void* a = Malloc(ctx, 1 << 20);
  void* b = Malloc(ctx, 1 << 20);
  const vt::Time t0 = ctx.clock.now();
  Memcpy(ctx, b, a, 1 << 20);
  const vt::Time d2d = ctx.clock.now() - t0;
  // D2D is far faster than the PCI-E copy of the same size.
  EXPECT_LT(d2d, vt::transfer_time(1 << 20, ctx.cost().pcie_h2d_gbps));
}

TEST_F(CopyTest, PeerCopyReservesBothPcieLinks) {
  HostContext ctx1(m, 1);
  void* a = Malloc(ctx, 1 << 20);
  void* b = Malloc(ctx1, 1 << 20);
  Memcpy(ctx, b, a, 1 << 20);  // peer d2d
  EXPECT_GT(m.device(0).pcie().total_busy(), 0);
  EXPECT_GT(m.device(1).pcie().total_busy(), 0);
}

TEST_F(CopyTest, HostToHostAdvancesOnlyCpuTime) {
  std::vector<std::byte> a(1 << 20), b(1 << 20);
  const vt::Time t0 = ctx.clock.now();
  Memcpy(ctx, b.data(), a.data(), 1 << 20);
  EXPECT_EQ(ctx.clock.now() - t0,
            ctx.cost().cpu_copy_ns(1 << 20));
  EXPECT_EQ(m.device(0).pcie().total_busy(), 0);
}

TEST_F(CopyTest, ZeroByteCopyIsFree) {
  void* dev = Malloc(ctx, 64);
  const vt::Time t0 = ctx.clock.now();
  Memcpy(ctx, dev, dev, 0);
  EXPECT_EQ(ctx.clock.now(), t0);
}

// --- Memcpy2D ----------------------------------------------------------------------

TEST_F(CopyTest, Memcpy2DMovesRowsFunctionally) {
  const std::size_t spitch = 64, dpitch = 32, width = 32, rows = 8;
  std::vector<std::byte> src(spitch * rows), dst(dpitch * rows);
  test::fill_pattern(src.data(), src.size(), 3);
  Memcpy2D(ctx, dst.data(), dpitch, src.data(), spitch, width, rows);
  for (std::size_t r = 0; r < rows; ++r)
    EXPECT_EQ(std::memcmp(dst.data() + r * dpitch, src.data() + r * spitch,
                          width),
              0);
}

TEST_F(CopyTest, Memcpy2DRejectsWidthBeyondPitch) {
  std::vector<std::byte> a(1024), b(1024);
  EXPECT_THROW(Memcpy2D(ctx, a.data(), 16, b.data(), 64, 32, 4),
               std::invalid_argument);
}

TEST_F(CopyTest, Memcpy2DMisalignedWidthIsSlower) {
  // Same total payload; 64B-multiple rows vs. off-granule rows.
  const std::size_t rows = 1024;
  void* dev = Malloc(ctx, 256 * rows);
  std::vector<std::byte> host(256 * rows);
  HostContext c1(m, 0);
  const vt::Time t0 = c1.clock.now();
  Memcpy2D(c1, host.data(), 256, dev, 256, 128, rows);
  const vt::Time aligned = c1.clock.now() - t0;
  const vt::Time t1 = c1.clock.now();
  Memcpy2D(c1, host.data(), 256, dev, 256, 120, rows);
  const vt::Time misaligned = c1.clock.now() - t1;
  EXPECT_GT(misaligned, aligned);
}

// --- Streams, events, kernels --------------------------------------------------------

TEST_F(CopyTest, StreamOperationsSerializeInVirtualTime) {
  Stream s(&m.device(0));
  void* a = Malloc(ctx, 1 << 20);
  void* b = Malloc(ctx, 1 << 20);
  std::vector<std::byte> h(1 << 20);
  const vt::Time f1 = MemcpyAsync(ctx, a, h.data(), 1 << 20, s);
  const vt::Time f2 = MemcpyAsync(ctx, b, h.data(), 1 << 20, s);
  EXPECT_GT(f2, f1);
  EXPECT_EQ(s.tail(), f2);
}

TEST_F(CopyTest, StreamSynchronizeAdvancesHostClock) {
  Stream s(&m.device(0));
  void* a = Malloc(ctx, 1 << 20);
  std::vector<std::byte> h(1 << 20);
  const vt::Time f = MemcpyAsync(ctx, a, h.data(), 1 << 20, s);
  EXPECT_LT(ctx.clock.now(), f);  // async: host ran ahead
  StreamSynchronize(ctx, s);
  EXPECT_GE(ctx.clock.now(), f);
}

TEST_F(CopyTest, EventsOrderStreams) {
  Stream s1(&m.device(0)), s2(&m.device(0));
  void* a = Malloc(ctx, 1 << 20);
  std::vector<std::byte> h(1 << 20);
  MemcpyAsync(ctx, a, h.data(), 1 << 20, s1);
  const Event e = EventRecord(ctx, s1);
  StreamWaitEvent(ctx, s2, e);
  const vt::Time f2 = MemcpyAsync(ctx, a, h.data(), 1 << 20, s2);
  EXPECT_GE(f2, e.timestamp);
}

TEST_F(CopyTest, KernelProfileSetsDuration) {
  Stream s(&m.device(0));
  KernelProfile prof;
  prof.device_txn_bytes = 1 << 20;
  prof.blocks = 64;
  const vt::Time finish = LaunchKernel(ctx, s, prof);
  EXPECT_GE(finish - ctx.clock.now(),
            ctx.cost().kernel_launch_ns / 2);
}

TEST_F(CopyTest, NarrowKernelIsComputeBound) {
  const CostModel& cm = ctx.cost();
  KernelProfile narrow;
  narrow.device_txn_bytes = 100 << 20;
  narrow.blocks = 1;
  KernelProfile wide = narrow;
  wide.blocks = 15;
  const vt::Time t_narrow = KernelDuration(cm, narrow, 15);
  const vt::Time t_wide = KernelDuration(cm, wide, 15);
  EXPECT_GT(t_narrow, 3 * t_wide);
}

TEST_F(CopyTest, ConcurrentKernelsContendForSms) {
  Stream s1(&m.device(0)), s2(&m.device(0));
  KernelProfile big;
  big.device_txn_bytes = 100 << 20;
  big.blocks = 64;  // full width
  const vt::Time f1 = LaunchKernel(ctx, s1, big);
  const vt::Time f2 = LaunchKernel(ctx, s2, big);
  // Full-width kernels cannot overlap: the second queues behind the first.
  EXPECT_GE(f2, f1);
}

TEST_F(CopyTest, ZeroCopyKernelHoldsPcieLink) {
  Stream s(&m.device(0));
  KernelProfile prof;
  prof.device_txn_bytes = 1 << 20;
  prof.pcie_bytes = 1 << 20;
  prof.pcie_dir = PcieDir::kToHost;
  prof.blocks = 15;
  LaunchKernel(ctx, s, prof);
  EXPECT_GT(m.device(0).pcie().total_busy(), 0);
}

// --- IPC --------------------------------------------------------------------------------

TEST_F(CopyTest, IpcHandleRoundTripsAcrossContexts) {
  auto* dev = static_cast<std::byte*>(Malloc(ctx, 512));
  test::fill_pattern(dev, 512, 9);
  const IpcMemHandle h = IpcGetMemHandle(ctx, dev);
  HostContext peer(m, 1);
  auto* mapped = static_cast<std::byte*>(IpcOpenMemHandle(peer, h));
  EXPECT_EQ(mapped, dev);  // same simulated address space
  EXPECT_EQ(std::memcmp(mapped, dev, 512), 0);
}

TEST_F(CopyTest, IpcOpenCostsTime) {
  void* dev = Malloc(ctx, 64);
  const IpcMemHandle h = IpcGetMemHandle(ctx, dev);
  HostContext peer(m, 1);
  const vt::Time t0 = peer.clock.now();
  IpcOpenMemHandle(peer, h);
  EXPECT_EQ(peer.clock.now() - t0, ctx.cost().ipc_open_ns);
}

TEST_F(CopyTest, IpcGetHandleRejectsHostPointer) {
  int x;
  EXPECT_THROW(IpcGetMemHandle(ctx, &x), std::invalid_argument);
}

// --- TimedCopy ------------------------------------------------------------------------------

TEST_F(CopyTest, TimedCopyRespectsDependency) {
  void* a = Malloc(ctx, 4096);
  void* b = Malloc(ctx, 4096);
  const vt::Time f = TimedCopy(ctx, b, a, 4096, vt::usec(500));
  EXPECT_GE(f, vt::usec(500));
}

TEST_F(CopyTest, TimedCopyDoesNotBlockHostClock) {
  void* a = Malloc(ctx, 1 << 20);
  void* b = Malloc(ctx, 1 << 20);
  const vt::Time t0 = ctx.clock.now();
  TimedCopy(ctx, b, a, 1 << 20, 0);
  EXPECT_EQ(ctx.clock.now(), t0);
}

}  // namespace
}  // namespace gpuddt::sg

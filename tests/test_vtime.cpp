#include <gtest/gtest.h>

#include "vtime/resource.h"
#include "vtime/vclock.h"

namespace gpuddt::vt {
namespace {

TEST(VClock, StartsAtZero) {
  VClock c;
  EXPECT_EQ(c.now(), 0);
}

TEST(VClock, AdvanceAccumulates) {
  VClock c;
  c.advance(10);
  c.advance(5);
  EXPECT_EQ(c.now(), 15);
}

TEST(VClock, WaitUntilNeverGoesBackwards) {
  VClock c;
  c.advance(100);
  c.wait_until(50);
  EXPECT_EQ(c.now(), 100);
  c.wait_until(200);
  EXPECT_EQ(c.now(), 200);
}

TEST(VClock, ResetRestoresStart) {
  VClock c(7);
  c.advance(10);
  c.reset(3);
  EXPECT_EQ(c.now(), 3);
}

TEST(TransferTime, ZeroBytesIsFree) {
  EXPECT_EQ(transfer_time(0, 10.0), 0);
  EXPECT_EQ(transfer_time(-5, 10.0), 0);
}

TEST(TransferTime, PositiveBytesTakeAtLeastOneNano) {
  EXPECT_GE(transfer_time(1, 1000.0), 1);
}

TEST(TransferTime, ScalesLinearly) {
  // 10 GB/s -> 1e9 bytes take 1e8 ns.
  EXPECT_EQ(transfer_time(1'000'000'000, 10.0), 100'000'000);
}

TEST(TimedResource, BackToBackRequestsSerialize) {
  TimedResource r;
  const auto a = r.reserve(0, 100);
  const auto b = r.reserve(0, 50);
  EXPECT_EQ(a.start, 0);
  EXPECT_EQ(a.finish, 100);
  EXPECT_EQ(b.start, 100);
  EXPECT_EQ(b.finish, 150);
}

TEST(TimedResource, IdleGapsAreRespected) {
  TimedResource r;
  r.reserve(0, 10);
  const auto b = r.reserve(1000, 10);
  EXPECT_EQ(b.start, 1000);
  EXPECT_EQ(b.finish, 1010);
}

TEST(TimedResource, TracksBusyTime) {
  TimedResource r;
  r.reserve(0, 10);
  r.reserve(0, 20);
  EXPECT_EQ(r.total_busy(), 30);
}

TEST(TimedResource, ResetClearsState) {
  TimedResource r;
  r.reserve(0, 100);
  r.reset();
  EXPECT_EQ(r.available(), 0);
  EXPECT_EQ(r.total_busy(), 0);
}

TEST(CapacityResource, ParallelTasksShareSlots) {
  CapacityResource r(4);
  // Four width-1 tasks run concurrently.
  for (int i = 0; i < 4; ++i) {
    const auto res = r.reserve(0, 100, 1);
    EXPECT_EQ(res.start, 0);
  }
  // The fifth waits for a slot.
  const auto fifth = r.reserve(0, 100, 1);
  EXPECT_EQ(fifth.start, 100);
}

TEST(CapacityResource, WideTaskOccupiesManySlots) {
  CapacityResource r(4);
  const auto wide = r.reserve(0, 100, 4);
  EXPECT_EQ(wide.start, 0);
  const auto next = r.reserve(0, 10, 1);
  EXPECT_EQ(next.start, 100);
}

TEST(CapacityResource, WidthClampsToCapacity) {
  CapacityResource r(2);
  const auto res = r.reserve(0, 10, 100);
  EXPECT_EQ(res.finish, 10);
  const auto next = r.reserve(0, 10, 1);
  EXPECT_EQ(next.start, 10);
}

TEST(CapacityResource, NarrowTaskSlipsInBesideWideOne) {
  CapacityResource r(4);
  r.reserve(0, 100, 3);  // occupies 3 slots
  const auto narrow = r.reserve(0, 50, 1);
  EXPECT_EQ(narrow.start, 0);  // the 4th slot is free
}

TEST(CapacityResource, PicksEarliestSlots) {
  CapacityResource r(2);
  r.reserve(0, 100, 1);  // slot busy until 100
  r.reserve(0, 10, 1);   // other slot busy until 10
  const auto next = r.reserve(0, 10, 1);
  EXPECT_EQ(next.start, 10);  // reuses the earlier-free slot
}

TEST(CapacityResource, BusyAccountingIsSlotNanoseconds) {
  CapacityResource r(4);
  r.reserve(0, 10, 2);
  EXPECT_EQ(r.total_busy(), 20);
}

}  // namespace
}  // namespace gpuddt::vt

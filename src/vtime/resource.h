// Shared timed resources.
//
// A TimedResource models a serialized engine (a DMA copy engine, a network
// link): requests queue up in virtual time in the order they arrive. A
// CapacityResource models an array of identical execution slots (the SMs of
// a GPU): a task asks for `width` slots and is placed on the `width`
// earliest-available ones, which is how kernel concurrency and the
// GPU-sharing experiments are expressed.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "vtime/vclock.h"

namespace gpuddt::vt {

/// The interval a reservation was granted.
struct Reservation {
  Time start = 0;
  Time finish = 0;
};

/// A resource that serves one request at a time (link, copy engine).
class TimedResource {
 public:
  TimedResource() = default;

  /// Reserve `duration` ns starting no earlier than `earliest`.
  Reservation reserve(Time earliest, Time duration) {
    const Time start = std::max(earliest, available_);
    const Time finish = start + duration;
    available_ = finish;
    total_busy_ += duration;
    return {start, finish};
  }

  /// Next instant the resource is free.
  Time available() const {
    return available_;
  }

  /// Total virtual time this resource spent busy (utilization metrics).
  Time total_busy() const {
    return total_busy_;
  }

  void reset() {
    available_ = 0;
    total_busy_ = 0;
  }

 private:
  Time available_ = 0;
  Time total_busy_ = 0;
};

/// A pool of `capacity` identical slots. A task occupying `width` slots for
/// `duration` starts once the `width` earliest-available slots are all free
/// and not before `earliest`. This deliberately simple placement policy is
/// deterministic and captures the two behaviours the paper exercises:
/// narrow kernels leave slots for concurrent work (Section 5.3), and a
/// co-running application delays pack/unpack kernels (Section 5.4).
class CapacityResource {
 public:
  explicit CapacityResource(int capacity) : slots_(capacity, Time{0}) {
    assert(capacity > 0);
  }

  int capacity() const { return static_cast<int>(slots_.size()); }

  Reservation reserve(Time earliest, Time duration, int width) {
    const int n = static_cast<int>(slots_.size());
    if (width > n) width = n;
    if (width < 1) width = 1;
    // Select the `width` earliest-available slots (small n: linear scans).
    std::vector<int> chosen;
    chosen.reserve(width);
    std::vector<bool> used(slots_.size(), false);
    Time start = earliest;
    for (int k = 0; k < width; ++k) {
      int best = -1;
      for (int i = 0; i < n; ++i) {
        if (used[i]) continue;
        if (best < 0 || slots_[i] < slots_[best]) best = i;
      }
      used[best] = true;
      chosen.push_back(best);
      start = std::max(start, slots_[best]);
    }
    const Time finish = start + duration;
    for (int i : chosen) slots_[i] = finish;
    total_busy_ += duration * width;
    return {start, finish};
  }

  /// Busy slot-nanoseconds (divide by capacity for average utilization).
  Time total_busy() const {
    return total_busy_;
  }

  void reset() {
    for (auto& s : slots_) s = 0;
    total_busy_ = 0;
  }

 private:
  std::vector<Time> slots_;
  Time total_busy_ = 0;
};

}  // namespace gpuddt::vt

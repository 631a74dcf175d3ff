// Virtual-time primitives.
//
// Every actor in the simulation (an MPI rank's host CPU, a GPU kernel
// engine, a DMA copy engine, a PCI-E or InfiniBand link) advances a logical
// clock measured in integer nanoseconds. Operations never sleep: they
// *reserve* intervals on shared resources and propagate timestamps through
// streams, events and messages. The resulting timeline is exactly what a
// discrete-event simulation would produce, while the functional side of
// every operation (the actual byte movement) executes eagerly on the
// calling thread, so correctness and timing are decoupled.
#pragma once

#include <algorithm>
#include <cstdint>

namespace gpuddt::vt {

/// Virtual time in nanoseconds since simulation start.
using Time = std::int64_t;

constexpr Time kNanosPerMicro = 1000;
constexpr Time kNanosPerMilli = 1000 * 1000;
constexpr Time kNanosPerSecond = 1000 * 1000 * 1000;

constexpr Time usec(double n) { return static_cast<Time>(n * kNanosPerMicro); }
constexpr Time msec(double n) { return static_cast<Time>(n * kNanosPerMilli); }

/// Duration of moving `bytes` over a resource sustaining `gb_per_s` (1e9
/// bytes per second). Rounds up so zero-byte transfers still take zero and
/// any positive transfer takes at least 1 ns.
constexpr Time transfer_time(std::int64_t bytes, double gb_per_s) {
  if (bytes <= 0) return 0;
  const double ns = static_cast<double>(bytes) / gb_per_s;
  const Time t = static_cast<Time>(ns);
  return t > 0 ? t : 1;
}

/// A logical clock owned by a single actor (one rank, or one serialized
/// engine). Cross-actor propagation happens via TimedResource or explicit
/// timestamps on messages/events.
class VClock {
 public:
  VClock() = default;
  explicit VClock(Time start) : now_(start) {}

  Time now() const { return now_; }

  /// Advance by a duration (local work, e.g. CPU-side DEV conversion).
  Time advance(Time duration) {
    now_ += duration;
    return now_;
  }

  /// Wait until an external timestamp (message arrival, stream sync).
  Time wait_until(Time t) {
    now_ = std::max(now_, t);
    return now_;
  }

  void reset(Time t = 0) { now_ = t; }

 private:
  Time now_ = 0;
};

}  // namespace gpuddt::vt

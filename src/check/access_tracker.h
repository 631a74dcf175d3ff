// Stream hazard detector - the checking layer's first pass.
//
// Happens-before model: every tracked operation carries a *guaranteed*
// virtual-time window [start, finish). `start` is the earliest start its
// ordering constructs establish - the max of the issuing stream's tail,
// the host clock at enqueue and any explicit timestamp dependency (event
// waits, RDMA `earliest` bounds) - and `finish` is what the stream tail
// is raised to. An ordering edge (same stream, StreamWaitEvent, a
// completion timestamp threaded through the protocol) forces the later
// op's start to at least the earlier op's finish, so *ordered* operations
// have disjoint windows by construction. Two operations whose windows
// overlap are concurrent as far as the program's synchronization goes;
// if their byte ranges also intersect and at least one writes, that is a
// RAW/WAR/WAW hazard (classified by which op's guaranteed start is
// earlier).
//
// Known approximations (see docs/checking.md): an op that happens to be
// enqueued after another finished - with no ordering construct forcing it
// - is treated as ordered (host-clock coincidence can mask a latent
// race), and accesses to unregistered host memory are not tracked.
//
// History is keyed per allocation (device arena block or registered host
// block), pruned on free/reset, and capped per buffer; dropped records
// are counted, never silently discarded.
//
// Counts go to the check.* counters of the tracker's recorder, and each
// hazard is one obs::Diagnostic reported into that recorder (obs::report:
// default_recorder() when the tracker has none).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "obs/recorder.h"
#include "simgpu/access.h"

namespace gpuddt::sg {
class Machine;
}

namespace gpuddt::check {

class AccessTracker : public sg::AccessObserver {
 public:
  explicit AccessTracker(sg::Machine& machine);

  /// Count check.* into `rec` and report hazards there. Null leaves the
  /// counters unrecorded and reports hazards to obs::default_recorder().
  void set_recorder(obs::Recorder* rec);

  void on_op(const sg::OpInfo& info,
             std::span<const sg::MemRange> ranges) override;
  void on_release(const void* ptr, std::size_t bytes) override;
  void on_reset() override;

 private:
  struct Record {
    std::uintptr_t lo = 0;  // byte range [lo, hi)
    std::uintptr_t hi = 0;
    vt::Time start = 0;  // guaranteed window [start, finish)
    vt::Time finish = 0;
    std::uint64_t op_seq = 0;
    const char* label = nullptr;
    const void* queue = nullptr;
    const char* queue_name = nullptr;
    bool write = false;
  };
  /// Per-allocation history. `max_finish[i]` is the running maximum of
  /// recs[0..i].finish, so a binary search finds the first record whose
  /// suffix could still overlap a new op's window - ordered (sequential)
  /// workloads scan nothing.
  struct Buffer {
    std::vector<Record> recs;
    std::vector<vt::Time> max_finish;
    int device = -1;
  };

  void scan_and_insert(Buffer& buf, const Record& r);
  void compact(Buffer& buf);

  sg::Machine& machine_;
  std::map<std::uintptr_t, Buffer> buffers_;  // key: allocation base
  obs::Recorder* rec_ = nullptr;
  std::uint64_t next_seq_ = 1;
  std::vector<sg::MemRange> scratch_;  // normalized ranges of one op
};

/// The tracker attached to a machine by make_default_observer, or null.
AccessTracker* tracker_of(sg::Machine& machine);

/// Convenience: point the machine's tracker (if any) at a recorder.
void set_recorder(sg::Machine& machine, obs::Recorder* rec);

}  // namespace gpuddt::check

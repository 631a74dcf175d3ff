// The event-driven simulator core.
//
// Every simulated MPI rank is a resumable continuation (a stackful
// coroutine over ucontext): each rank body runs on its own small mmap'd
// stack, and a single deterministic event loop on the calling thread
// dispatches them one at a time. One process simulates 1000+ ranks with
// zero kernel involvement per handoff.
//
// Dispatch order is the contract. Each resume is an event stamped
// (vtime, task, seq) - the resumed rank's virtual clock, its id, and a
// globally monotone sequence number - and the loop dispatches the unique
// next event determined by the cooperative rotation: the first runnable
// task after the one that just suspended, in cyclic id order. Every touch
// of shared virtual-time state (arenas, timed resources, inboxes)
// therefore happens in one program-defined order and all checked-in
// baselines replay identically (docs/simulator.md, docs/determinism.md).
//
// Suspension points:
//   * wait_for_message(t) - t blocks until note_message(t) delivers;
//   * yield(t)            - t stays runnable but every other runnable
//                           task gets one turn first (empty-inbox polls);
//   * the task body returning or throwing.
//
// Deadlock is detected exactly: when no task is runnable and some are
// blocked, every blocked task is resumed once to throw DeadlockError
// carrying the per-task pending-operation report supplied by the
// installed block describer (the MPI runtime wires this to
// Pml::pending_summary, so the error names tags/peers/contexts, not just
// rank ids).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>

#include "vtime/vclock.h"

namespace gpuddt::vt {

/// Produces a one-line description of what a blocked task is waiting on
/// (e.g. "recv(src=1, tag=7, ctx=0)"). Used to build deadlock reports.
using BlockDescriber = std::function<std::string(int task)>;

/// All remaining tasks are blocked on empty inboxes: nobody can ever
/// deliver. Thrown inside every blocked task; the message lists each
/// blocked task's pending operations.
class DeadlockError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Counters the event loop keeps about its own operation. Deterministic
/// for a fixed program (they count scheduling decisions, which are a
/// pure function of the program), so bench_sim_throughput gates them.
struct EngineStats {
  std::uint64_t dispatches = 0;  ///< continuation resumes (event seq)
  std::uint64_t wakeups = 0;     ///< note_message deliveries
  std::uint64_t yields = 0;      ///< polling suspensions taken
  Time max_vtime = 0;            ///< latest virtual clock seen at suspend
};

/// The event-driven core: runs `ntasks` bodies as stackful continuations
/// on the calling thread. See the file comment for the dispatch policy.
class EventEngine {
 public:
  struct Options {
    /// Usable stack bytes per continuation (rounded up to whole pages; a
    /// guard page below the stack turns overflow into a fault, not
    /// silent corruption).
    std::size_t stack_bytes = std::size_t{1} << 20;
  };

  explicit EventEngine(int ntasks) : EventEngine(ntasks, Options()) {}
  EventEngine(int ntasks, Options opts);
  ~EventEngine();

  EventEngine(const EventEngine&) = delete;
  EventEngine& operator=(const EventEngine&) = delete;

  /// Run every task body to completion. Dispatches task 0 first, then
  /// follows the rotation. Rethrows the lowest-id failing task's
  /// exception after all tasks have finished or died.
  void run(const std::function<void(int task)>& body);

  // --- Called from inside task bodies -----------------------------------

  /// Suspend until a message is delivered to `task` (returns immediately
  /// if one arrived since the last wait/poll). Throws DeadlockError when
  /// every remaining task is blocked.
  void wait_for_message(int task);

  /// Polling suspension (empty-inbox progress): every other runnable
  /// task gets one turn, then `task` resumes. No-op when nothing else
  /// can run.
  void yield(int task);

  /// A message was delivered to `task`'s inbox: mark it pending and make
  /// the task runnable. Called by the currently-executing task.
  void note_message(int task);

  // --- Set up before run() ------------------------------------------------

  /// Install the pending-op describer consulted when composing deadlock
  /// reports. Optional; without it reports carry task ids only.
  void set_block_describer(BlockDescriber d);

  /// Report the resumed task's virtual clock to the dispatch stamp. The
  /// runtime installs a probe reading the rank's vt::VClock; without one
  /// EngineStats::max_vtime stays 0.
  void set_clock_probe(std::function<Time(int)> probe);

  EngineStats stats() const;

  struct Impl;  // public so the C trampoline entry point can reach it

 private:
  std::unique_ptr<Impl> impl_;
};

}  // namespace gpuddt::vt

// The mini-MPI runtime.
//
// Mirrors the Open MPI architecture the paper integrates into:
//   * Runtime  - runs every rank on a shared simulated Machine, owns the
//                BTL instances and the Active-Message handler table (the
//                paper's Section 4 plumbing).
//   * Process  - the per-rank context: virtual clock, GPU HostContext,
//                inbox of Active Messages, PML instance.
//
// Ranks are continuations of one event loop (vtime/engine.h) on the
// calling thread; a rank-to-node map decides whether a pair of ranks
// communicates over the shared-memory BTL or the simulated InfiniBand BTL.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "check/config.h"
#include "simgpu/runtime.h"
#include "vtime/engine.h"
#include "vtime/vclock.h"

namespace gpuddt::obs {
class Recorder;
}

namespace gpuddt::mpi {

class Runtime;
class Process;
class Pml;
class Btl;
class Bml;
class GpuTransferPlugin;

/// Stream-triggered fragment chains (docs/protocols.md; env var
/// GPUDDT_STREAM_TRIGGERED, forced on by the benches' --stream-triggered
/// flag). The per-runtime tri-state is RuntimeConfig::stream_triggered.
/// Off by default, so every baseline stays byte-identical unless a run
/// opts in.
extern check::Switch stream_triggered_switch;

/// A BTL-level Active Message: the receiver runs the registered handler
/// for `handler` when it progresses its inbox ([4] in the paper).
struct AmMessage {
  int handler = 0;
  int src_rank = -1;
  vt::Time arrival = 0;  // virtual time the bytes are available
  std::vector<std::byte> payload;
};

using AmHandler = std::function<void(Process&, AmMessage&)>;

struct RuntimeConfig {
  int world_size = 2;
  /// Ranks [k*ranks_per_node, (k+1)*ranks_per_node) live on node k and
  /// talk over the shared-memory BTL; other pairs use the IB BTL.
  int ranks_per_node = 1 << 30;  // default: single node
  /// Device selection; default: rank % num_devices.
  std::function<int(int)> device_of;
  sg::MachineConfig machine;

  // --- PML / protocol knobs ---------------------------------------------
  std::size_t eager_limit = 64 * 1024;
  /// Device-resident sends at or below this size skip the rendezvous
  /// handshake entirely: the engine packs into a zero-copy host buffer
  /// and the bytes travel as one eager Active Message (the "short/eager"
  /// tier of the paper's Section 4 protocol selection).
  std::size_t gpu_eager_limit = 16 * 1024;
  std::size_t frag_bytes = 512 * 1024;       // host rendezvous fragment
  std::size_t gpu_frag_bytes = 512 * 1024;   // GPU pipeline fragment
  int gpu_pipeline_depth = 4;                // staging slots
  bool ipc_enabled = true;        // CUDA IPC available within a node
  bool gpudirect_rdma = false;    // direct GPU<->NIC path (off: host staging)
  /// Number of InfiniBand rails per node pair; large messages round-robin
  /// across them (the BML's multi-link transfer management).
  int ib_rails = 1;
  /// Above this size GPUDirect RDMA loses to host staging ([14], ~30KB);
  /// the protocol falls back to the pipelined copy-in/out.
  std::int64_t gpudirect_limit_bytes = 30 * 1024;
  bool zero_copy = true;          // UMA-mapped host bounce buffers
  /// Receiver of an inter-GPU RDMA copies packed fragments into a local
  /// staging buffer before unpacking (Section 5.2: 10-20% faster than
  /// unpacking straight out of remote device memory).
  bool recv_local_staging = true;
  /// Pipelined RDMA direction (Section 4.1 mentions both): GET (default,
  /// receiver pulls each packed fragment from the sender's exposed
  /// staging) or PUT (the sender pushes each fragment into the receiver's
  /// exposed staging ring).
  bool rdma_put_mode = false;
  /// Stream-triggered fragment chains (docs/protocols.md): pre-enqueue
  /// the whole pack -> RDMA GET -> unpack -> credit chain as stream/event
  /// dependencies after one rendezvous, removing the per-fragment
  /// FragReady/FragFree host round-trips. Tri-state: -1 follows
  /// stream_triggered_switch, 0/1 force off/on.
  int stream_triggered = -1;
  /// CUDA blocks per pack/unpack kernel (Section 5.3 resource sweep).
  int gpu_kernel_blocks = 64;
  /// Force the copy-in/out protocol even when IPC would be available.
  bool force_copy_inout = false;

  /// Usable stack bytes per rank continuation. Rank bodies run protocol
  /// code on these stacks; the default fits the deepest existing path
  /// (collectives over rendezvous over DEV) with ample headroom, and a
  /// guard page faults on overflow.
  std::size_t sim_stack_bytes = std::size_t{1} << 20;

  /// Optional observability sink shared by every rank (counters,
  /// histograms, trace events; see obs/recorder.h). Nullable - the
  /// runtime is silent when unset.
  obs::Recorder* recorder = nullptr;
};

/// Per-rank context. All of a rank's protocol state is mutated only by
/// its own continuation (AM handlers run during that rank's progress
/// calls).
class Process {
 public:
  Process(Runtime& rt, int rank);
  ~Process();

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  int rank() const { return rank_; }
  int size() const;
  int node() const { return node_; }

  Runtime& runtime() { return rt_; }
  const RuntimeConfig& config() const;

  /// The rank's virtual clock (shared with its GPU context).
  vt::VClock& clock() { return gpu_.clock; }
  sg::HostContext& gpu() { return gpu_; }

  Pml& pml() { return *pml_; }

  // --- Messaging -------------------------------------------------------
  /// Send an Active Message to `dst` through the right BTL. `earliest`
  /// expresses a virtual-time dependency (e.g. a pack-kernel finish); the
  /// wire transfer starts no earlier than max(clock, earliest).
  vt::Time am_send(int dst, int handler, std::vector<std::byte> payload,
                   vt::Time earliest = 0);

  /// Drain and dispatch pending messages; returns true if any ran.
  bool progress();

  /// Block until at least one message is processed. Throws
  /// vt::DeadlockError when no rank can ever deliver one.
  void progress_blocking();

  /// Called by the sending rank to enqueue a message.
  void deliver(AmMessage&& m);

  /// Node id of another rank.
  int node_of(int rank) const;

 private:
  Runtime& rt_;
  int rank_;
  int node_;
  sg::HostContext gpu_;
  std::unique_ptr<Pml> pml_;

  std::deque<AmMessage> inbox_;
};

class Runtime {
 public:
  explicit Runtime(RuntimeConfig cfg);
  ~Runtime();

  const RuntimeConfig& config() const { return cfg_; }
  sg::Machine& machine() { return *machine_; }

  /// Register an Active-Message handler; must happen before run(). The
  /// returned id is consistent across ranks (single registration table).
  int register_handler(AmHandler h);

  const AmHandler& handler(int id) const { return handlers_.at(id); }

  /// Install the GPU transfer plugin (the paper's datatype-engine
  /// integration). Must precede run(); may be null (host-only MPI).
  void set_gpu_plugin(std::shared_ptr<GpuTransferPlugin> plugin);
  GpuTransferPlugin* gpu_plugin() { return plugin_.get(); }

  /// SPMD entry: run `fn` once per rank. Every rank is a resumable
  /// continuation dispatched by one event loop on the calling thread. The
  /// lowest-failing-rank exception is rethrown at the end.
  void run(const std::function<void(Process&)>& fn);

  Process& process(int rank) { return *procs_.at(rank); }
  Btl& btl_between(int a, int b);
  Bml& bml() { return *bml_; }

  int device_of(int rank) const;
  int node_of(int rank) const {
    return rank / cfg_.ranks_per_node;
  }

  /// The event loop driving the ranks; null outside run().
  vt::EventEngine* scheduler() { return sched_; }

  /// Event-loop counters from the last run. Deterministic for a fixed
  /// program, so bench_sim_throughput gates them byte-exactly.
  const vt::EngineStats& sim_stats() const { return sim_stats_; }

 private:
  RuntimeConfig cfg_;
  std::unique_ptr<sg::Machine> machine_;
  std::vector<AmHandler> handlers_;
  std::shared_ptr<GpuTransferPlugin> plugin_;
  std::unique_ptr<Bml> bml_;
  std::vector<std::unique_ptr<Process>> procs_;
  vt::EventEngine* sched_ = nullptr;
  vt::EngineStats sim_stats_;
  bool ran_ = false;
};

}  // namespace gpuddt::mpi

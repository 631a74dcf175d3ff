// The CUDA-like runtime surface of the simulated GPU.
//
// All operations take a HostContext - the per-rank handle bundling the
// shared Machine, the caller's virtual clock and its current device - and
// mirror the CUDA runtime calls the paper's implementation uses:
// cudaMalloc / cudaMallocHost / cudaMemcpy{2D,Async} / streams / events /
// kernel launch / CUDA IPC. Every copy both moves real bytes and advances
// virtual time through the machine's timed resources; a kernel launch
// times the bytes its caller moved.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "simgpu/access.h"
#include "simgpu/machine.h"
#include "simgpu/stream.h"

namespace gpuddt::sg {

/// Per-rank execution context.
struct HostContext {
  explicit HostContext(Machine& m, int dev = 0) : machine(&m), device(dev) {}

  Machine* machine;
  vt::VClock clock;
  int device = 0;

  Device& dev() const { return machine->device(device); }
  const CostModel& cost() const { return machine->cost(); }
};

// --- Memory management ------------------------------------------------------

/// cudaMalloc on the context's current device.
void* Malloc(HostContext& ctx, std::size_t bytes);
void Free(HostContext& ctx, void* ptr);

/// cudaMallocHost / cudaHostAlloc(cudaHostAllocMapped).
void* HostAlloc(HostContext& ctx, std::size_t bytes, bool mapped = false);
void HostFree(HostContext& ctx, void* ptr);

// --- Copies -------------------------------------------------------------------

/// Synchronous cudaMemcpy (kind inferred from the pointer registry).
void Memcpy(HostContext& ctx, void* dst, const void* src, std::size_t bytes);

/// Asynchronous copy ordered in `stream`; returns the operation's virtual
/// finish time (also recorded as the stream tail).
vt::Time MemcpyAsync(HostContext& ctx, void* dst, const void* src,
                     std::size_t bytes, Stream& stream);

/// Synchronous cudaMemcpy2D: `height` rows of `width` bytes with the given
/// pitches. The cost model reproduces the 64-byte-granule behaviour of the
/// real copy engine (Figure 8).
void Memcpy2D(HostContext& ctx, void* dst, std::size_t dpitch, const void* src,
              std::size_t spitch, std::size_t width, std::size_t height);

/// One-shot copy with an explicit virtual-time dependency, not bound to a
/// stream and not blocking the host clock: the building block of the BTL
/// RDMA engines (CUDA IPC get/put). Moves the bytes immediately, reserves
/// the appropriate resources (copy engine, PCI-E links) no earlier than
/// `earliest`, and returns the virtual finish time. `label` names the
/// operation in access-checker diagnostics.
vt::Time TimedCopy(HostContext& ctx, void* dst, const void* src,
                   std::size_t bytes, vt::Time earliest,
                   const char* label = "timed_copy");

/// Report a byte movement performed outside the runtime's own calls (for
/// example a BTL moving wire bytes with plain memcpy) to the machine's
/// access observer. No timing effect; no-op when checking is off.
void NoteAccess(HostContext& ctx, const char* label, vt::Time start,
                vt::Time finish, std::span<const MemRange> ranges);

// --- Streams and events --------------------------------------------------------

void StreamSynchronize(HostContext& ctx, Stream& stream);
Event EventRecord(HostContext& ctx, Stream& stream);
void StreamWaitEvent(HostContext& ctx, Stream& stream, const Event& ev);

/// Earliest time a consumer on `target_device` can act on `ev`, which was
/// recorded on `origin_device`'s timeline (device id, or the NIC modeled
/// as the far device). Crossing devices charges
/// `CostModel::cross_event_wait_ns` for the doorbell/flag propagation over
/// PCI-E; a same-device dependency is free. This is the cost model behind
/// stream-triggered fragment chains: every pack-ready, unpack-trigger and
/// credit-return dependency resolves through it instead of a host AM.
vt::Time EventReadyOn(const HostContext& ctx, const Event& ev,
                      int origin_device, int target_device);

// --- Kernels ----------------------------------------------------------------------

/// Where a kernel's non-local traffic flows.
enum class PcieDir : std::uint8_t {
  kNone,      // both sides in local device memory
  kToHost,    // writes land in zero-copy mapped host memory
  kFromHost,  // reads come from zero-copy mapped host memory
  kPeer,      // one side lives in a peer device (CUDA IPC mapping)
};

/// Work descriptor a kernel reports to the timing model. The caller moves
/// the bytes eagerly; the profile determines the virtual duration.
struct KernelProfile {
  /// Device-memory traffic in transaction-rounded bytes (reads + writes).
  std::int64_t device_txn_bytes = 0;
  /// Traffic crossing PCI-E (zero-copy host access or peer-device access;
  /// 0 when both sides are local device memory).
  std::int64_t pcie_bytes = 0;
  PcieDir pcie_dir = PcieDir::kNone;
  /// Total warp-rounds of work: one round = one warp copying 32 x 8 bytes.
  std::int64_t warp_rounds = 0;
  /// CUDA blocks the kernel is launched with; limits SM occupancy.
  int blocks = 1;
};

/// Launch a kernel on `stream`. The caller has already moved the kernel's
/// bytes; this reserves its virtual interval on the device's SM array (and
/// PCI-E link for zero-copy traffic) and returns the virtual finish time.
/// `label` and `ranges` describe the kernel's memory footprint to the
/// access checker (the pack/unpack kernels list ranges only when an
/// observer is attached).
/// `triggered_at`, when non-null, marks a *pre-enqueued* (stream-triggered)
/// launch: the host already paid the enqueue cost when the chain was
/// submitted, so the calling clock is neither read nor advanced - the
/// launch is ordered after max(stream tail, *triggered_at) purely by
/// stream/event dependencies. Null (the default) is the ordinary
/// host-enqueued launch charging `enqueue_ns` at the current clock.
vt::Time LaunchKernel(HostContext& ctx, Stream& stream,
                      const KernelProfile& profile,
                      const char* label = "kernel",
                      std::span<const MemRange> ranges = {},
                      const vt::Time* triggered_at = nullptr);

/// Duration such a kernel occupies the SMs, excluding queueing (exposed
/// for the cost-model unit tests).
vt::Time KernelDuration(const CostModel& cm, const KernelProfile& profile,
                        int sms_available);

// --- CUDA IPC -----------------------------------------------------------------------

struct IpcMemHandle {
  int device = -1;
  std::uint64_t offset = 0;  // from the owning arena's base
  std::uint64_t size = 0;
};

/// cudaIpcGetMemHandle: handle for a device allocation, shareable with
/// other ranks on the same node.
IpcMemHandle IpcGetMemHandle(HostContext& ctx, void* device_ptr);

/// cudaIpcOpenMemHandle: map a peer's allocation. Costs ipc_open_ns; the
/// protocol layer caches handles (the "registration cache" of Section 4.1).
void* IpcOpenMemHandle(HostContext& ctx, const IpcMemHandle& handle);

}  // namespace gpuddt::sg

// GPU transfer protocols - Section 4 of the paper.
//
// GpuDatatypePlugin is the integration of the GPU datatype engine with the
// PML/BTL stack. It implements:
//
//  * Pipelined RDMA protocol (Section 4.1, TransferMode::kIpcRdma):
//    one-time RDMA connection (IPC memory-handle exchange with a
//    registration cache), BTL-level Active Messages, a receiver-driven GET
//    with fragment-indexed pack / unpack-ready / fragment-free messages so
//    sender packing, wire transfer and receiver unpacking proceed
//    concurrently over a ring of `depth` staging slots.
//    Handshake shortcuts: a contiguous sender exposes its source buffer
//    and the receiver drives the whole transfer (kRdmaRecvDriven); a
//    contiguous receiver exposes its destination and the sender packs
//    straight into remote memory (kRdmaPackToRemote).
//
//  * Copy-in/copy-out protocol (Section 4.2, TransferMode::kHostFrags):
//    when IPC / GPUDirect is unavailable (different nodes, or disabled),
//    packed fragments are staged through host memory - by default through
//    zero-copy UMA-mapped bounce buffers so the device<->host movement is
//    done "by hardware" and overlaps the pack/unpack kernels - and shipped
//    as ordinary PML fragments, interoperating with host-side peers.
//
// The receiver picks the mode in its CTS, exactly like the paper's GET
// handshake. Every pipelined mode shares one staging-ring type and two
// fragment steps (docs/protocols.md, "One staging ring, two fragment
// steps").
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>

#include "core/engine.h"
#include "mpi/btl.h"
#include "mpi/pml.h"
#include "mpi/runtime.h"

namespace gpuddt::proto {

class GpuDatatypePlugin : public mpi::GpuTransferPlugin {
 public:
  GpuDatatypePlugin() = default;

  void attach(mpi::Runtime& rt) override;
  void send_start(mpi::Process& p, mpi::SendRequest& req) override;
  void send_on_cts(mpi::Process& p, mpi::SendRequest& req,
                   const mpi::CtsHeader& cts, vt::Time arrival) override;
  void recv_start(mpi::Process& p, mpi::RecvRequest& req,
                  const mpi::RtsHeader& rts, vt::Time arrival) override;
  void recv_on_frag(mpi::Process& p, mpi::RecvRequest& req,
                    const mpi::FragHeader& hdr,
                    std::span<const std::byte> data, vt::Time arrival) override;
  void recv_eager(mpi::Process& p, mpi::RecvRequest& req,
                  std::span<const std::byte> data, vt::Time arrival) override;
  void recv_fin(mpi::Process& p, mpi::RecvRequest& req,
                vt::Time arrival) override;

  /// The per-rank GPU datatype engine (created lazily by that rank; also
  /// used directly by benchmarks).
  core::GpuDatatypeEngine& engine(mpi::Process& p);

  /// MPI_Pack-style explicit packing: gather `count` elements of `dt`
  /// from `inbuf` into `outbuf` starting at byte *position (updated on
  /// return). Device-resident `inbuf` uses the GPU engine; host buffers
  /// the CPU engine. Returns the bytes packed.
  std::int64_t pack(mpi::Process& p, const void* inbuf, std::int64_t count,
                    const mpi::DatatypePtr& dt, std::span<std::byte> outbuf,
                    std::int64_t* position);

  /// MPI_Unpack-style inverse: scatter from `inbuf` at *position into
  /// `outbuf` laid out as (dt, count).
  std::int64_t unpack(mpi::Process& p, std::span<const std::byte> inbuf,
                      std::int64_t* position, void* outbuf,
                      std::int64_t count, const mpi::DatatypePtr& dt);

 private:
  struct PerRank {
    std::unique_ptr<core::GpuDatatypeEngine> engine;
    /// CUDA IPC registration cache: opened handles, keyed by
    /// (device, offset) - the paper's one-time RDMA connection.
    std::map<std::pair<int, std::uint64_t>, void*> ipc_cache;
  };

  struct SendState;
  struct RecvState;
  struct Packed;
  struct Landed;

  PerRank& per_rank(mpi::Process& p);
  /// pack() and unpack(): move (dt, count) at `user` to (kPack) or from
  /// (kUnpack) `packed` at byte *position.
  std::int64_t pack_unpack(mpi::Process& p, core::GpuDatatypeEngine::Dir dir,
                           void* user, std::int64_t count,
                           const mpi::DatatypePtr& dt,
                           std::span<std::byte> packed,
                           std::int64_t* position);
  void* open_handle(mpi::Process& p, const sg::IpcMemHandle& h);
  /// The fragment-size rule: `want` bytes, capped at one AM's payload
  /// when fragments travel as AMs over `am` (copy-in/out), and never
  /// below the engine's work unit S.
  std::int64_t frag_size(mpi::Process& p, std::int64_t want,
                         mpi::Btl* am = nullptr);

  // The two fragment steps: the plugin's only per-fragment engine calls.

  /// Send step: pack `req`'s next fragment into its ring slot, no earlier
  /// than the slot's free time, under frag_flow(rank, send id, k).
  Packed pack_frag(mpi::Process& p, mpi::SendRequest& req);
  /// Receive step: land fragment `k` of `bytes` packed bytes, readable at
  /// `src` from `avail` on (RDMA GET into the local ring, H2D copy into
  /// the bounce, or in place), unpack it, check its size and free its
  /// slot.
  Landed unpack_frag(mpi::Process& p, mpi::RecvRequest& req, std::int64_t k,
                     const std::byte* src, std::int64_t bytes,
                     vt::Time avail);
  /// Finish `req`'s pack and complete it once the host clock reaches
  /// `until`; its staging rings go with its state.
  void finish_send(mpi::Process& p, mpi::SendRequest& req,
                   vt::Time until = 0);
  /// Check that `req` unpacked its whole message, finish its op and wait
  /// for its last unpack (and for `until`).
  void finish_recv(mpi::Process& p, mpi::RecvRequest& req,
                   vt::Time until = 0);

  // What each mode adds: how a packed fragment ships and when its ack
  // leaves.

  /// Pack and publish fragments while the staging window has room
  /// (kIpcRdma sender side).
  void pump_rdma_send(mpi::Process& p, mpi::SendRequest& req);
  /// kStreamTriggered sender side: enqueue the ENTIRE per-fragment
  /// pack -> RDMA GET -> unpack -> credit chain at CTS time as
  /// stream/event dependencies, resolved by one forward pass - no
  /// FragReady/FragFree AMs, no per-fragment host wakeups on either rank.
  void drive_stream_chain(mpi::Process& p, mpi::SendRequest& req,
                          const mpi::CtsHeader& cts);
  /// Receiver-driven GET transfer from a contiguous exposed source
  /// (kRdmaRecvDriven).
  void drive_recv_from_contiguous(mpi::Process& p, mpi::RecvRequest& req,
                                  const mpi::RtsHeader& rts,
                                  vt::Time arrival);
  /// Stage-and-ship loop for the copy-in/out sender.
  void pump_host_send(mpi::Process& p, mpi::SendRequest& req);

  // AM handlers (protocol-private messages).
  void on_frag_ready(mpi::Process& p, mpi::AmMessage& m);
  void on_frag_free(mpi::Process& p, mpi::AmMessage& m);

  int h_frag_ready_ = -1;
  int h_frag_free_ = -1;

  std::unordered_map<int, std::unique_ptr<PerRank>> ranks_;
};

}  // namespace gpuddt::proto

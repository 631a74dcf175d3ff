// Point-to-point Management Layer (PML).
//
// MPI matching, protocol selection and fragmentation, one instance per
// rank. Host-resident data uses the classic eager / rendezvous protocols
// with the CPU datatype engine; any transfer touching device memory is
// delegated to the installed GpuTransferPlugin (implemented in
// src/protocols - the paper's contribution), via the same RTS/CTS wire
// protocol so host and device endpoints interoperate.
#pragma once

#include <cstdint>
#include <cstring>
#include <limits>
#include <list>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "mpi/cpu_pack.h"
#include "mpi/cursor.h"
#include "mpi/datatype.h"
#include "mpi/runtime.h"

namespace gpuddt::mpi {

constexpr int kAnySource = -1;
constexpr int kAnyTag = -1;

struct Envelope {
  std::int32_t context = 0;
  std::int32_t src = -1;
  std::int32_t dst = -1;
  std::int32_t tag = 0;
};

struct Status {
  int source = -1;
  int tag = -1;
  std::int64_t bytes = 0;
};

/// User-visible request handle. Mutated only by the owning rank.
struct RequestState {
  bool done = false;
  Status status;  // status.source is a world rank until translated
  /// Set for sub-communicator receives: translates status.source to a
  /// group rank on completion (see Pml::wait / Comm::irecv).
  std::shared_ptr<const std::vector<int>> group;
};
using Request = std::shared_ptr<RequestState>;

// --- Wire protocol headers (POD, memcpy'd into AM payloads) -------------------

/// An AM payload holding header `h` followed by `extra` unwritten bytes
/// that the caller must fill (or throw) before sending. Every AM sender
/// (PML, GPU plugin, baselines) builds its payloads here.
template <typename H>
Payload make_payload(const H& h, std::size_t extra = 0) {
  Payload v(sizeof(H) + extra);
  std::memcpy(v.data(), &h, sizeof(H));
  return v;
}

/// The header at the front of `m`'s payload; throws std::runtime_error
/// when the payload is shorter than the header.
template <typename H>
H read_header(const AmMessage& m) {
  if (m.payload.size() < sizeof(H))
    throw std::runtime_error("truncated AM payload");
  H h;
  std::memcpy(&h, m.payload.data(), sizeof(H));
  return h;
}

/// Rendezvous RTS: sender -> receiver.
struct RtsHeader {
  Envelope env;
  std::uint64_t send_id = 0;
  std::int64_t total_bytes = 0;  // packed size of the message
  std::uint8_t src_is_device = 0;
  std::uint8_t src_contiguous = 0;
  std::uint8_t has_handle = 0;  // `handle` exposes sender memory via IPC
  std::int32_t src_device = -1;
  std::int32_t src_node = -1;
  sg::IpcMemHandle handle;      // staging buffer, or the source if contiguous
  /// For a contiguous source exposed via `handle`: byte offset of packed
  /// byte 0 from the handle's base (the datatype's leading displacement).
  std::int64_t src_disp = 0;
  std::int64_t frag_bytes = 0;  // sender's pipeline geometry
  std::int32_t depth = 0;
  std::uint64_t sig_hash = 0;  // datatype signature (sanity check)
};

/// Transfer modes a receiver may select in its CTS.
enum class TransferMode : std::uint8_t {
  /// Stream packed fragments as AM payloads through host memory: the host
  /// rendezvous protocol and, when an endpoint is a GPU, the paper's
  /// copy-in/copy-out protocol (Section 4.2).
  kHostFrags = 0,
  /// Pipelined RDMA through the sender's exposed staging buffer
  /// (Section 4.1); both endpoints device-resident, IPC available.
  kIpcRdma = 1,
  /// Contiguous receiver exposed its destination; sender packs straight
  /// into it (Section 4.1 handshake shortcut).
  kRdmaPackToRemote = 2,
  /// Contiguous sender exposed its source; receiver pulls and unpacks on
  /// its own, sender only waits for the final fin (other shortcut).
  kRdmaRecvDriven = 3,
  /// Stream-triggered chain (docs/protocols.md): after this one CTS, the
  /// whole per-fragment pack -> RDMA GET -> unpack -> credit-return chain
  /// is pre-enqueued as stream/event dependencies on both GPUs. No
  /// FragReady/FragFree AMs, no per-fragment host wakeups; only the final
  /// fin touches the host. Negotiated only when both sides opted in
  /// (mpi::stream_triggered_switch) and the kIpcRdma GET preconditions
  /// hold.
  kStreamTriggered = 4,
};

/// CTS: receiver -> sender.
struct CtsHeader {
  std::uint64_t send_id = 0;
  std::uint64_t recv_id = 0;
  TransferMode mode = TransferMode::kHostFrags;
  std::uint8_t has_handle = 0;
  sg::IpcMemHandle handle;  // receiver memory exposed to the sender
  /// kRdmaPackToRemote: offset of packed byte 0 within the exposed region.
  std::int64_t remote_disp = 0;
  std::int64_t frag_bytes = 0;
  std::int32_t depth = 0;
};

/// Data fragment header (kHostFrags mode); payload bytes follow.
struct FragHeader {
  std::uint64_t recv_id = 0;
  std::int64_t offset = 0;
  std::int64_t bytes = 0;
  std::uint8_t last = 0;
};

/// Globally-unique fragment flow id tying one fragment's trace spans
/// (conv -> H2D desc -> pack kernel -> wire/RDMA GET -> unpack) together
/// across ranks (docs/tracing.md). A pure function of values both sides
/// already hold - the AM's source rank, the RTS-carried send id, and the
/// fragment's in-order index - so sender and receiver compute identical
/// ids with no extra wire bytes (AM payload size is charged to the
/// virtual clock, so widening a header would shift every baseline).
/// Send ids are per-rank monotone, making (src rank, send id, fragment
/// index) globally unique. Never 0 (rank is biased by 1), and kept below
/// 2^53 so the id survives JSON parsers that store numbers as doubles
/// (obs/json.h): 13 bits of rank, 20 of send id, 20 of fragment index.
inline std::uint64_t frag_flow(int src_rank, std::uint64_t send_id,
                               std::int64_t frag_idx) {
  return (static_cast<std::uint64_t>(src_rank + 1) << 40) |
         ((send_id & 0xFFFFFull) << 20) |
         (static_cast<std::uint64_t>(frag_idx) & 0xFFFFFull);
}

/// Cross-rank flow id of one collective invocation. Every member rank
/// computes the same id from state it already holds - the communicator
/// context and the per-instance collective epoch (identical across ranks
/// because collectives must be called in the same order on a
/// communicator) - so the member spans of one bcast/reduce/... chain into
/// one Chrome flow with no extra wire bytes. Lives in frag_flow's
/// reserved all-ones rank slot (rank field 0x1FFF), which no real rank
/// can produce, so collective flows never collide with fragment flows.
inline std::uint64_t coll_flow(int context, int epoch) {
  return (std::uint64_t{0x1FFF} << 40) |
         ((static_cast<std::uint64_t>(context) & 0xFFFFFull) << 20) |
         (static_cast<std::uint64_t>(epoch) & 0xFFFFFull);
}

/// Completion notification for RDMA modes.
struct FinHeader {
  std::uint64_t req_id = 0;   // send_id or recv_id depending on direction
  std::uint8_t to_sender = 0;
};

// --- Requests -----------------------------------------------------------------------

/// Opaque per-request protocol state owned by the GPU plugin.
struct PluginState {
  virtual ~PluginState() = default;
};

struct SendRequest {
  std::uint64_t id = 0;
  Envelope env;
  const void* buf = nullptr;
  DatatypePtr dt;
  std::int64_t count = 0;
  std::int64_t total_bytes = 0;
  sg::PtrAttributes space;
  Request user;

  // Host-path state.
  BlockCursor cursor;

  // Rendezvous latency bookkeeping (virtual time; 0 = not applicable).
  vt::Time rts_sent = 0;

  // GPU-path state.
  std::unique_ptr<PluginState> plugin;
};

struct RecvRequest {
  std::uint64_t id = 0;
  // Matching criteria (src/tag may be wildcards).
  std::int32_t context = 0;
  std::int32_t src = kAnySource;
  std::int32_t tag = kAnyTag;
  void* buf = nullptr;
  DatatypePtr dt;
  std::int64_t count = 0;
  std::int64_t total_bytes = 0;
  sg::PtrAttributes space;
  Request user;
  bool matched = false;
  Envelope matched_env;

  // Host-path state: the cursor's consumed bytes are the fragment
  // stream's progress.
  BlockCursor cursor;

  // Fragment-flow bookkeeping (frag_flow; trace-only, never on the wire).
  std::uint64_t peer_send_id = 0;  // RTS-carried sender request id
  std::int64_t frags_seen = 0;     // fragments arrived (in-order index)
  std::uint64_t last_flow = 0;     // flow id of the fragment in flight

  // Rendezvous latency bookkeeping (virtual time; 0 = not applicable).
  vt::Time cts_sent = 0;
  vt::Time first_frag_arrival = 0;
  vt::Time last_frag_arrival = 0;

  // GPU-path state.
  std::unique_ptr<PluginState> plugin;
};

/// Interface the protocols module implements (the paper's GPU datatype
/// engine integration). Installed once on the Runtime.
class GpuTransferPlugin {
 public:
  virtual ~GpuTransferPlugin() = default;

  /// Register protocol-specific AM handlers; called once before run().
  virtual void attach(Runtime& rt) = 0;

  /// Sender side, device source buffer: emit the RTS (allocating staging
  /// and exposing IPC handles as appropriate).
  virtual void send_start(Process& p, SendRequest& req) = 0;

  /// Sender side: CTS arrived for a device-source send.
  virtual void send_on_cts(Process& p, SendRequest& req,
                           const CtsHeader& cts, vt::Time arrival) = 0;

  /// Receiver side: an RTS matched a posted recv and either endpoint is
  /// device-resident. Must choose the TransferMode, reply CTS, and own the
  /// transfer until completion.
  virtual void recv_start(Process& p, RecvRequest& req, const RtsHeader& rts,
                          vt::Time arrival) = 0;

  /// Receiver side, kHostFrags mode with a device destination: one packed
  /// fragment arrived.
  virtual void recv_on_frag(Process& p, RecvRequest& req,
                            const FragHeader& hdr,
                            std::span<const std::byte> data,
                            vt::Time arrival) = 0;

  /// Receiver side: a small eager message (host-packed payload) matched a
  /// recv whose destination lives in device memory.
  virtual void recv_eager(Process& p, RecvRequest& req,
                          std::span<const std::byte> data,
                          vt::Time arrival) = 0;

  /// Receiver side: the sender's completion fin arrived for a recv this
  /// plugin owns (req.plugin set). Runs on the receiving rank just
  /// before Pml::complete_recv - the stream-triggered chain finalizes its
  /// engine op and frees staging here, since no per-fragment AM ever
  /// wakes the receiver. Default: nothing (host-driven modes finished
  /// their op before the fin was sent).
  virtual void recv_fin(Process& p, RecvRequest& req, vt::Time arrival) {
    (void)p;
    (void)req;
    (void)arrival;
  }
};

// --- PML -----------------------------------------------------------------------------

class Pml {
 public:
  explicit Pml(Process& p);
  ~Pml();

  Request isend(const void* buf, std::int64_t count, const DatatypePtr& dt,
                int dst, int tag, int context = 0);
  Request irecv(void* buf, std::int64_t count, const DatatypePtr& dt, int src,
                int tag, int context = 0);

  void wait(const Request& r);
  void waitall(std::span<Request> rs);

  /// Non-blocking completion check (MPI_Test): progresses once and
  /// reports whether the request finished.
  bool test(const Request& r);

  /// Block until at least one request completes; returns its index
  /// (MPI_Waitany). All requests already complete returns the first.
  std::size_t waitany(std::span<const Request> rs);

  /// Non-blocking probe of the unexpected queue (MPI_Iprobe): true when a
  /// matching message is waiting; fills `st` with its envelope/size.
  bool iprobe(int src, int tag, int context, Status* st);

  /// One-line summary of this rank's in-flight operations - unmatched
  /// posted receives (src/tag/context wildcards spelled out), matched
  /// receives still transferring, and pending sends - in deterministic
  /// (id-sorted) order. The schedulers' deadlock reports are built from
  /// this, so a hang names the operations each rank is stuck on instead
  /// of just its id.
  std::string pending_summary() const;

  /// Register the PML's AM handlers (once per Runtime, before run()).
  static void register_handlers(Runtime& rt);

  /// Handler ids the GPU plugin targets directly: completion fins and the
  /// kHostFrags data fragments (shared with the host rendezvous so host
  /// and device endpoints interoperate).
  static int fin_handler() { return h_fin_; }
  static int frag_handler() { return h_frag_; }
  static int rts_handler() { return h_rts_; }
  static int cts_handler() { return h_cts_; }

  // Accessors the GPU plugin uses to find requests from AM handlers.
  SendRequest* find_send(std::uint64_t id);
  RecvRequest* find_recv(std::uint64_t id);
  void complete_send(SendRequest& req);
  void complete_recv(RecvRequest& req);

  /// Charge the calling rank's clock for a CPU pack/unpack of `st`.
  void charge_cpu_pack(const PackStats& st);

  /// Record one fragment arrival on `req` in pml.frags, pml.frag.bytes and
  /// the gap histograms - for on_frag and the GPU plugin's RDMA fragments.
  void record_frag_arrival(RecvRequest& req, std::int64_t bytes,
                           vt::Time arrival);

  /// Draw one id from this rank's per-request id space (the same counter
  /// isend/irecv use). Collective and one-sided engine drivers use it as
  /// the send_id component of mpi::frag_flow, so their trace flows can
  /// never collide with a point-to-point request's flows on this rank.
  std::uint64_t allocate_id() { return next_id_++; }

  /// Ship an already-packed eager payload (the GPU plugin's small-message
  /// path); the wire transfer starts no earlier than `earliest`. The
  /// caller completes its own request.
  vt::Time send_packed_eager(const Envelope& env,
                             std::span<const std::byte> packed,
                             vt::Time earliest);

 private:
  struct Unexpected {
    Envelope env;
    bool is_rts = false;
    RtsHeader rts;
    Payload payload;          // an eager message's whole AM payload
    std::size_t data_at = 0;  // where its packed bytes start
    vt::Time arrival = 0;

    /// An eager message's packed bytes: its payload past the header.
    std::span<const std::byte> packed() const {
      return std::span<const std::byte>(payload).subspan(data_at);
    }
  };

  // AM handler bodies.
  void on_eager(AmMessage& m);
  void on_rts(AmMessage& m);
  void on_cts(AmMessage& m);
  void on_frag(AmMessage& m);
  void on_fin(AmMessage& m);

  void start_host_rendezvous_send(SendRequest& req);
  void stream_host_frags(SendRequest& req, const CtsHeader& cts);
  void deliver_eager_to_recv(RecvRequest& req,
                             std::span<const std::byte> data,
                             vt::Time arrival);
  void handle_matched_rts(RecvRequest& req, const RtsHeader& rts,
                          vt::Time arrival);
  bool try_match_posted(const Envelope& env, RecvRequest** out);

  Process& proc_;
  std::uint64_t next_id_;
  std::unordered_map<std::uint64_t, std::unique_ptr<SendRequest>> sends_;
  std::unordered_map<std::uint64_t, std::unique_ptr<RecvRequest>> recvs_;
  std::list<RecvRequest*> posted_;
  std::list<Unexpected> unexpected_;

  // Handler ids (shared across ranks; set by register_handlers).
  static int h_eager_, h_rts_, h_cts_, h_frag_, h_fin_;

  friend class Process;
};

// --- User-facing communicator ---------------------------------------------------------

/// MPI-like communicator facade over a Process. The world communicator is
/// `Comm(process)`; `split(color, key)` derives sub-communicators with
/// their own rank numbering and matching context, like MPI_Comm_split.
class Comm {
 public:
  explicit Comm(Process& p, int context = 0) : p_(&p), context_(context) {}

  int rank() const { return group_ ? my_rank_ : p_->rank(); }
  int size() const {
    return group_ ? static_cast<int>(group_->size()) : p_->size();
  }
  Process& process() const { return *p_; }
  int context() const { return context_; }

  /// Group rank -> world rank.
  int world_rank(int r) const {
    return group_ ? group_->at(static_cast<std::size_t>(r)) : r;
  }
  /// World rank -> group rank (-1 if not a member).
  int group_rank(int world) const {
    if (!group_) return world;
    for (std::size_t i = 0; i < group_->size(); ++i)
      if ((*group_)[i] == world) return static_cast<int>(i);
    return -1;
  }

  /// Collective over this communicator: partition by `color` and order
  /// the new ranks by (key, old rank) - MPI_Comm_split.
  Comm split(int color, int key) const;

  /// Collective duplicate: same group, fresh matching context
  /// (MPI_Comm_dup) - traffic on the duplicate never matches the parent.
  Comm dup() const { return split(0, rank()); }

  Request isend(const void* buf, std::int64_t count, const DatatypePtr& dt,
                int dst, int tag) const {
    return p_->pml().isend(buf, count, dt, world_rank(dst), tag, context_);
  }
  Request irecv(void* buf, std::int64_t count, const DatatypePtr& dt, int src,
                int tag) const {
    Request r = p_->pml().irecv(
        buf, count, dt, src == kAnySource ? kAnySource : world_rank(src), tag,
        context_);
    if (group_) r->group = group_;  // translate status.source at completion
    return r;
  }
  void send(const void* buf, std::int64_t count, const DatatypePtr& dt,
            int dst, int tag) const {
    auto r = isend(buf, count, dt, dst, tag);
    p_->pml().wait(r);
  }
  Status recv(void* buf, std::int64_t count, const DatatypePtr& dt, int src,
              int tag) const {
    auto r = irecv(buf, count, dt, src, tag);
    p_->pml().wait(r);
    return r->status;
  }
  void wait(const Request& r) const { p_->pml().wait(r); }
  void waitall(std::span<Request> rs) const { p_->pml().waitall(rs); }
  bool test(const Request& r) const { return p_->pml().test(r); }
  std::size_t waitany(std::span<const Request> rs) const {
    return p_->pml().waitany(rs);
  }
  bool iprobe(int src, int tag, Status* st = nullptr) const {
    return p_->pml().iprobe(
        src == kAnySource ? kAnySource : world_rank(src), tag, context_, st);
  }

  /// Combined send+receive without deadlock (MPI_Sendrecv).
  Status sendrecv(const void* sendbuf, std::int64_t sendcount,
                  const DatatypePtr& senddt, int dst, int sendtag,
                  void* recvbuf, std::int64_t recvcount,
                  const DatatypePtr& recvdt, int src, int recvtag) const {
    Request r = irecv(recvbuf, recvcount, recvdt, src, recvtag);
    Request s = isend(sendbuf, sendcount, senddt, dst, sendtag);
    wait(r);
    wait(s);
    return r->status;
  }

  /// Dissemination barrier on an internal tag.
  void barrier() const;

 private:
  Comm(Process& p, int context, std::shared_ptr<const std::vector<int>> group,
       int my_rank)
      : p_(&p), context_(context), group_(std::move(group)),
        my_rank_(my_rank) {}

  Process* p_;
  int context_;
  std::shared_ptr<const std::vector<int>> group_;  // null = world
  int my_rank_ = -1;
};

/// Persistent communication request (MPI_Send_init / MPI_Recv_init):
/// freezes the argument list once, then start()/wait() per iteration -
/// the idiom of stencil halo loops.
class PersistentRequest {
 public:
  static PersistentRequest send_init(const Comm& comm, const void* buf,
                                     std::int64_t count, DatatypePtr dt,
                                     int peer, int tag) {
    return PersistentRequest(comm, const_cast<void*>(buf), count,
                             std::move(dt), peer, tag, /*is_send=*/true);
  }
  static PersistentRequest recv_init(const Comm& comm, void* buf,
                                     std::int64_t count, DatatypePtr dt,
                                     int peer, int tag) {
    return PersistentRequest(comm, buf, count, std::move(dt), peer, tag,
                             /*is_send=*/false);
  }

  /// Begin one instance of the operation (MPI_Start). The previous
  /// instance must have completed.
  void start() {
    if (active_ && !active_->done)
      throw std::logic_error("PersistentRequest::start: still active");
    active_ = is_send_ ? comm_.isend(buf_, count_, dt_, peer_, tag_)
                       : comm_.irecv(buf_, count_, dt_, peer_, tag_);
  }

  void wait() {
    if (!active_)
      throw std::logic_error("PersistentRequest::wait: not started");
    comm_.wait(active_);
  }

  bool test() { return active_ ? comm_.test(active_) : false; }
  const Status& status() const { return active_->status; }

 private:
  PersistentRequest(const Comm& comm, void* buf, std::int64_t count,
                    DatatypePtr dt, int peer, int tag, bool is_send)
      : comm_(comm),
        buf_(buf),
        count_(count),
        dt_(std::move(dt)),
        peer_(peer),
        tag_(tag),
        is_send_(is_send) {}

  Comm comm_;
  void* buf_;
  std::int64_t count_;
  DatatypePtr dt_;
  int peer_;
  int tag_;
  bool is_send_;
  Request active_;
};

}  // namespace gpuddt::mpi

#include "protocols/gpu_plugin.h"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <stdexcept>
#include <vector>

#include "obs/recorder.h"
#include "simgpu/staging.h"

namespace gpuddt::proto {

namespace {

using mpi::CtsHeader;
using mpi::FinHeader;
using mpi::FragHeader;
using mpi::make_payload;
using mpi::read_header;
using mpi::RtsHeader;
using mpi::TransferMode;

/// Pack-ready notification: sender -> receiver, "fragment `frag_idx` of
/// `bytes` bytes is packed in staging slot frag_idx % depth" (the paper's
/// "unpack request").
struct FragReadyHeader {
  std::uint64_t recv_id = 0;
  std::uint64_t send_id = 0;
  std::int64_t frag_idx = 0;
  std::int64_t bytes = 0;
  std::uint8_t last = 0;
};

/// Fragment-free acknowledgment: receiver -> sender, "slot of `frag_idx`
/// may be reused".
struct FragFreeHeader {
  std::uint64_t send_id = 0;
  std::int64_t frag_idx = 0;
};

// Receiver-side unpack reads AM payload bytes in place; register the
// span for the duration of the handler (simgpu/staging.h).
using sg::ScopedStagingRegistration;

using Dir = core::GpuDatatypeEngine::Dir;

core::EngineConfig engine_config(const mpi::RuntimeConfig& cfg,
                                 std::int32_t trace_pid) {
  core::EngineConfig e;
  e.kernel_blocks = cfg.gpu_kernel_blocks;
  e.recorder = cfg.recorder;
  e.trace_pid = trace_pid;
  return e;
}

std::int64_t ring_depth(const mpi::RuntimeConfig& cfg) {
  return std::max(1, cfg.gpu_pipeline_depth);
}

/// The counter that records a receive's transfer mode, by TransferMode.
constexpr const char* kModeCounter[] = {
    "gpu.mode.host_frags", "gpu.mode.ipc_rdma", "gpu.mode.rdma_pack_remote",
    "gpu.mode.rdma_recv_driven", "gpu.mode.stream_triggered"};
static_assert(std::size(kModeCounter) ==
              static_cast<std::size_t>(TransferMode::kStreamTriggered) + 1);

/// Answer `rts` with `cts` and count the receive's mode.
void reply_cts(mpi::Process& p, mpi::RecvRequest& req, const RtsHeader& rts,
               CtsHeader cts) {
  cts.send_id = rts.send_id;
  cts.recv_id = req.id;
  p.am_send(rts.env.src, mpi::Pml::cts_handler(), make_payload(cts));
  req.cts_sent = p.clock().now();
  obs::count(p.config().recorder,
             kModeCounter[static_cast<int>(cts.mode)]);
}

/// A staging ring: `depth` slots of `slot_bytes`, fragment k in slot
/// k mod depth, and the virtual time from which each slot may be
/// overwritten. An allocated ring owns device, mapped-host or pinned-host
/// memory of its rank and frees it when released or destroyed, so a
/// request's rings go with its protocol state. A view describes memory a
/// peer exposed (its ring, or a contiguous source whose slots never wrap)
/// and owns nothing.
class StagingRing {
 public:
  enum class Memory { kDevice, kMappedHost, kPinnedHost };

  StagingRing() = default;
  StagingRing(const StagingRing&) = delete;
  StagingRing& operator=(const StagingRing&) = delete;
  ~StagingRing() { release(); }

  /// Release what the ring held, then allocate `depth` slots of
  /// `slot_bytes` in `mem`, every slot free from time 0.
  void allocate(sg::HostContext& ctx, Memory mem, std::int64_t slot_bytes,
                std::int64_t depth) {
    release();
    const auto bytes = static_cast<std::size_t>(slot_bytes * depth);
    base_ = static_cast<std::byte*>(
        mem == Memory::kDevice
            ? sg::Malloc(ctx, bytes)
            : sg::HostAlloc(ctx, bytes, mem == Memory::kMappedHost));
    owner_ = &ctx;
    mem_ = mem;
    slot_bytes_ = slot_bytes;
    depth_ = depth;
    free_.assign(static_cast<std::size_t>(depth), 0);
  }

  /// Describe `depth` slots of `slot_bytes` at `base`, owned elsewhere.
  void view(void* base, std::int64_t slot_bytes, std::int64_t depth) {
    release();
    base_ = static_cast<std::byte*>(base);
    slot_bytes_ = slot_bytes;
    depth_ = depth;
  }

  void release() {
    if (owner_ != nullptr) {
      if (mem_ == Memory::kDevice) {
        sg::Free(*owner_, base_);
      } else {
        sg::HostFree(*owner_, base_);
      }
    }
    owner_ = nullptr;
    base_ = nullptr;
    free_.clear();
  }

  explicit operator bool() const { return base_ != nullptr; }
  std::byte* base() const { return base_; }
  std::int64_t slot_bytes() const { return slot_bytes_; }
  std::int64_t depth() const { return depth_; }
  std::byte* slot(std::int64_t k) const {
    return base_ + k % depth_ * slot_bytes_;
  }
  /// When fragment k's slot may be overwritten (allocated rings only).
  vt::Time& free_at(std::int64_t k) {
    return free_[static_cast<std::size_t>(k % depth_)];
  }
  /// When every slot is free again.
  vt::Time drained() const {
    vt::Time t = 0;
    for (const vt::Time f : free_) t = std::max(t, f);
    return t;
  }

 private:
  sg::HostContext* owner_ = nullptr;  // null: empty, or a view
  Memory mem_ = Memory::kDevice;
  std::byte* base_ = nullptr;
  std::int64_t slot_bytes_ = 0;
  std::int64_t depth_ = 1;
  std::vector<vt::Time> free_;
};

using Memory = StagingRing::Memory;

}  // namespace

// --- Per-request protocol state ----------------------------------------------

struct GpuDatatypePlugin::SendState : mpi::PluginState {
  std::unique_ptr<core::GpuDatatypeEngine::Op> op;
  std::uint64_t recv_id = 0;
  /// Fragment k is packed into slot k mod depth: the device ring the RTS
  /// exposes (GET) or that PUTs push out of, or the copy-in/out bounce -
  /// mapped host memory under zero-copy, device memory otherwise.
  StagingRing ring;
  /// Copy-in/out without zero-copy: the pinned host ring each packed
  /// fragment is copied into before it ships.
  StagingRing host;
  /// PUT mode: the receiver's exposed ring.
  StagingRing remote;
  std::int64_t next_frag = 0;  // fragments packed
  std::int64_t acks = 0;       // kIpcRdma fragment-free acks
};

struct GpuDatatypePlugin::RecvState : mpi::PluginState {
  /// How the receive step lands a fragment before unpacking it.
  enum class Land {
    kInPlace,  // unpack it where it sits
    kGet,      // RDMA GET it into `ring` first
    kCopyIn,   // copy it H2D into `ring`, the one-slot bounce, first
  };

  std::unique_ptr<core::GpuDatatypeEngine::Op> op;
  TransferMode mode = TransferMode::kHostFrags;
  std::uint64_t send_id = 0;
  int src_rank = -1;
  /// RDMA modes: where fragment k sits when the receive step takes it -
  /// the sender's ring, its contiguous source, or under PUT this rank's
  /// own `ring`.
  StagingRing src;
  /// This rank's ring: GETs and H2D copies land in it, or PUTs do.
  StagingRing ring;
  Land land = Land::kInPlace;
  vt::Time last_ready = 0;  // the latest unpack's completion
};

/// A fragment the send step packed.
struct GpuDatatypePlugin::Packed {
  std::int64_t k = 0;
  std::int64_t bytes = 0;
  vt::Time ready = 0;
};

/// A fragment the receive step unpacked.
struct GpuDatatypePlugin::Landed {
  /// When the sender's copy of the fragment may be overwritten: the GET's
  /// end when it was copied into the local ring, else the unpack's end.
  vt::Time drained = 0;
  vt::Time ready = 0;  // the unpack's completion
  std::uint64_t flow = 0;
};

// --- Plumbing ---------------------------------------------------------------------

void GpuDatatypePlugin::attach(mpi::Runtime& rt) {
  h_frag_ready_ = rt.register_handler(
      [this](mpi::Process& p, mpi::AmMessage& m) { on_frag_ready(p, m); });
  h_frag_free_ = rt.register_handler(
      [this](mpi::Process& p, mpi::AmMessage& m) { on_frag_free(p, m); });
}

GpuDatatypePlugin::PerRank& GpuDatatypePlugin::per_rank(mpi::Process& p) {
  auto& slot = ranks_[p.rank()];
  if (!slot) {
    slot = std::make_unique<PerRank>();
    slot->engine = std::make_unique<core::GpuDatatypeEngine>(
        p.gpu(), engine_config(p.config(), p.rank()));
  }
  return *slot;
}

core::GpuDatatypeEngine& GpuDatatypePlugin::engine(mpi::Process& p) {
  return *per_rank(p).engine;
}

void* GpuDatatypePlugin::open_handle(mpi::Process& p,
                                     const sg::IpcMemHandle& h) {
  PerRank& pr = per_rank(p);
  const auto key = std::make_pair(h.device, h.offset);
  auto it = pr.ipc_cache.find(key);
  if (it != pr.ipc_cache.end()) return it->second;  // registration hit
  void* ptr = sg::IpcOpenMemHandle(p.gpu(), h);
  pr.ipc_cache.emplace(key, ptr);
  return ptr;
}

std::int64_t GpuDatatypePlugin::frag_size(mpi::Process& p, std::int64_t want,
                                          mpi::Btl* am) {
  if (am != nullptr) {
    want = std::min<std::int64_t>(
        want,
        static_cast<std::int64_t>(am->max_am_payload() - sizeof(FragHeader)));
  }
  return std::max(want, engine(p).config().unit_bytes);
}

// --- Explicit MPI_Pack-style API --------------------------------------------------------

std::int64_t GpuDatatypePlugin::pack(mpi::Process& p, const void* inbuf,
                                     std::int64_t count,
                                     const mpi::DatatypePtr& dt,
                                     std::span<std::byte> outbuf,
                                     std::int64_t* position) {
  return pack_unpack(p, Dir::kPack, const_cast<void*>(inbuf), count, dt,
                     outbuf, position);
}

std::int64_t GpuDatatypePlugin::unpack(mpi::Process& p,
                                       std::span<const std::byte> inbuf,
                                       std::int64_t* position, void* outbuf,
                                       std::int64_t count,
                                       const mpi::DatatypePtr& dt) {
  return pack_unpack(
      p, Dir::kUnpack, outbuf, count, dt,
      {const_cast<std::byte*>(inbuf.data()), inbuf.size()}, position);
}

std::int64_t GpuDatatypePlugin::pack_unpack(mpi::Process& p, Dir dir,
                                            void* user, std::int64_t count,
                                            const mpi::DatatypePtr& dt,
                                            std::span<std::byte> packed,
                                            std::int64_t* position) {
  const bool is_pack = dir == Dir::kPack;
  const std::int64_t total = dt->size() * count;
  if (*position + total > static_cast<std::int64_t>(packed.size())) {
    throw std::invalid_argument(is_pack ? "pack: output buffer too small"
                                        : "unpack: input buffer too small");
  }
  std::byte* contig = packed.data() + *position;
  // Standalone packs are flows of their own when the latency engine is
  // on: one PML request id per call keys the flow (and stamps the engine
  // spans), so explicit pack/unpack classes are directly comparable to
  // the "send" class in the latency report (docs/latency.md).
  obs::Recorder* rec = p.config().recorder;
  const bool track = rec != nullptr && rec->flowstats().enabled();
  const std::uint64_t id = track ? p.pml().allocate_id() : 0;
  const vt::Time begin = p.clock().now();
  if (p.runtime().machine().is_device_ptr(user)) {
    core::GpuDatatypeEngine& eng = engine(p);
    auto op = eng.start(dir, dt, count, user);
    p.clock().wait_until(
        eng.drain(*op, contig, 0, 0, {track ? p.rank() : -1, id}).ready);
  } else {
    const std::span<std::byte> bytes(contig, static_cast<std::size_t>(total));
    p.pml().charge_cpu_pack(is_pack ? mpi::cpu_pack(dt, count, user, bytes)
                                    : mpi::cpu_unpack(dt, count, bytes, user));
  }
  if (track) {
    rec->flowstats().complete({mpi::frag_flow(p.rank(), id, 0),
                               is_pack ? "pack" : "unpack",
                               dt->shape_digest(), total, begin,
                               p.clock().now(), 1});
  }
  *position += total;
  return total;
}

// --- The fragment steps ------------------------------------------------------------

GpuDatatypePlugin::Packed GpuDatatypePlugin::pack_frag(mpi::Process& p,
                                                       mpi::SendRequest& req) {
  auto& st = *static_cast<SendState*>(req.plugin.get());
  const std::int64_t k = st.next_frag++;
  st.op->set_flow(mpi::frag_flow(p.rank(), req.id, k));
  const auto res = engine(p).process_some(
      *st.op, st.ring.slot(k), st.ring.slot_bytes(), st.ring.free_at(k));
  if (res.bytes == 0)
    throw std::logic_error("gpu plugin: send step packed nothing");
  return {k, res.bytes, res.ready};
}

GpuDatatypePlugin::Landed GpuDatatypePlugin::unpack_frag(
    mpi::Process& p, mpi::RecvRequest& req, std::int64_t k,
    const std::byte* src, std::int64_t bytes, vt::Time avail) {
  auto& st = *static_cast<RecvState*>(req.plugin.get());
  core::GpuDatatypeEngine& eng = engine(p);
  // The pure function of (src rank, send id, frag idx) the sender used, so
  // this fragment's unpack spans join its cross-rank flow chain.
  const std::uint64_t flow = mpi::frag_flow(st.src_rank, st.send_id, k);
  if (st.ring && bytes > st.ring.slot_bytes())
    throw std::runtime_error("gpu plugin: fragment exceeds its staging slot");
  auto* from = const_cast<std::byte*>(src);
  vt::Time dep = avail;
  if (st.land == RecvState::Land::kGet) {
    const vt::Time t_start = std::max(avail, st.ring.free_at(k));
    from = st.ring.slot(k);
    dep = p.runtime().btl_between(p.rank(), st.src_rank).rdma_get(
        p, st.src_rank, from, src, static_cast<std::size_t>(bytes), t_start);
    // The GET spans the fragment, except under host-driven RDMA, where
    // on_frag_ready spans it from its announce to its unpack.
    if (st.mode != TransferMode::kIpcRdma) {
      obs::trace(p.config().recorder,
                 {"rdma_frag", "gpu", t_start, dep, p.rank(), bytes,
                  p.rank(), flow, obs::Stage::kRdma});
    }
  } else if (st.land == RecvState::Land::kCopyIn) {
    // Explicit copy-in: H2D staging, then unpack from device memory.
    from = st.ring.slot(k);
    dep = sg::MemcpyAsync(p.gpu(), from, src, static_cast<std::size_t>(bytes),
                          eng.pack_stream());
  }
  core::GpuDatatypeEngine::Result res;
  if (st.mode == TransferMode::kStreamTriggered) {
    res = eng.process_triggered(*st.op, from, bytes, dep, flow);
  } else {
    st.op->set_flow(flow);
    res = eng.process_some(*st.op, from, bytes, dep);
  }
  if (res.bytes != bytes)
    throw std::runtime_error("gpu plugin: fragment size mismatch");
  if (st.ring) st.ring.free_at(k) = res.ready;
  st.last_ready = res.ready;
  return {st.land == RecvState::Land::kGet ? dep : res.ready, res.ready, flow};
}

void GpuDatatypePlugin::finish_send(mpi::Process& p, mpi::SendRequest& req,
                                    vt::Time until) {
  engine(p).finish(*static_cast<SendState*>(req.plugin.get())->op);
  p.clock().wait_until(until);
  p.pml().complete_send(req);
}

void GpuDatatypePlugin::finish_recv(mpi::Process& p, mpi::RecvRequest& req,
                                    vt::Time until) {
  auto* st = static_cast<RecvState*>(req.plugin.get());
  if (st->op != nullptr) {
    if (st->op->bytes_done() != req.total_bytes)
      throw std::runtime_error("gpu plugin: fragment stream size mismatch");
    engine(p).finish(*st->op);
  }
  p.clock().wait_until(std::max(until, st->last_ready));
}

// --- Sender side ---------------------------------------------------------------------

void GpuDatatypePlugin::send_start(mpi::Process& p, mpi::SendRequest& req) {
  const mpi::RuntimeConfig& cfg = p.config();

  // Small-message tier: pack into a zero-copy host buffer and ship one
  // eager AM - no handshake, no staging ring, no acks.
  if (req.total_bytes <= static_cast<std::int64_t>(cfg.gpu_eager_limit)) {
    core::GpuDatatypeEngine& eng = engine(p);
    StagingRing bounce;
    bounce.allocate(p.gpu(), Memory::kMappedHost, req.total_bytes + 1, 1);
    auto op = eng.start(Dir::kPack, req.dt, req.count,
                        const_cast<void*>(req.buf));
    const vt::Time ready = eng.drain(*op, bounce.base()).ready;
    p.pml().send_packed_eager(
        req.env,
        std::span<const std::byte>(bounce.base(),
                                   static_cast<std::size_t>(req.total_bytes)),
        ready);
    obs::count(cfg.recorder, "gpu.sends.eager");
    p.pml().complete_send(req);
    return;
  }

  auto st = std::make_unique<SendState>();
  const std::int64_t frag =
      frag_size(p, static_cast<std::int64_t>(cfg.gpu_frag_bytes));
  const std::int64_t depth = ring_depth(cfg);

  RtsHeader rts;
  rts.env = req.env;
  rts.send_id = req.id;
  rts.total_bytes = req.total_bytes;
  rts.src_is_device = 1;
  rts.src_contiguous = req.dt->is_contiguous(req.count) ? 1 : 0;
  rts.src_device = req.space.device;
  rts.src_node = p.node();
  rts.frag_bytes = frag;
  rts.depth = static_cast<std::int32_t>(depth);
  rts.sig_hash = req.dt->signature().hash();

  mpi::Btl& btl = p.runtime().btl_between(p.rank(), req.env.dst);
  if (btl.supports_gpu_rdma(p, req.env.dst) && req.total_bytes > 0 &&
      req.total_bytes <= btl.gpu_rdma_limit(p)) {
    rts.has_handle = 1;
    if (rts.src_contiguous) {
      // Shortcut: expose the source buffer itself; the receiver drives
      // the whole transfer and fins us.
      rts.handle =
          sg::IpcGetMemHandle(p.gpu(), const_cast<void*>(req.buf));
      rts.src_disp = req.dt->true_lb();
    } else {
      st->ring.allocate(p.gpu(), Memory::kDevice, frag, depth);
      rts.handle = sg::IpcGetMemHandle(p.gpu(), st->ring.base());
    }
  }
  req.plugin = std::move(st);
  p.am_send(req.env.dst, mpi::Pml::rts_handler(), make_payload(rts));
  req.rts_sent = p.clock().now();
  obs::count(cfg.recorder, "gpu.sends.rendezvous");
}

void GpuDatatypePlugin::send_on_cts(mpi::Process& p, mpi::SendRequest& req,
                                    const CtsHeader& cts, vt::Time /*arrival*/) {
  auto* st = static_cast<SendState*>(req.plugin.get());
  if (st == nullptr)
    throw std::runtime_error("gpu plugin: CTS without send state");
  st->recv_id = cts.recv_id;
  core::GpuDatatypeEngine& eng = engine(p);

  switch (cts.mode) {
    case TransferMode::kHostFrags: {
      // Receiver declined (or cannot do) RDMA: copy-in/out protocol. The
      // GET ring goes; fragments stage through a mapped host ring
      // (zero-copy) or a device ring plus a pinned host copy.
      const mpi::RuntimeConfig& cfg = p.config();
      const std::int64_t frag = frag_size(
          p,
          cts.frag_bytes > 0 ? cts.frag_bytes
                             : static_cast<std::int64_t>(cfg.gpu_frag_bytes),
          &p.runtime().btl_between(p.rank(), req.env.dst));
      const std::int64_t depth = ring_depth(cfg);
      if (cfg.zero_copy) {
        st->ring.allocate(p.gpu(), Memory::kMappedHost, frag, depth);
      } else {
        st->ring.allocate(p.gpu(), Memory::kDevice, frag, depth);
        st->host.allocate(p.gpu(), Memory::kPinnedHost, frag, depth);
      }
      st->op = eng.start(Dir::kPack, req.dt, req.count,
                         const_cast<void*>(req.buf));
      pump_host_send(p, req);
      return;
    }
    case TransferMode::kIpcRdma: {
      if (cts.has_handle) {
        // PUT mode: the receiver exposed its staging ring; we keep our
        // ring local and push each packed fragment across.
        st->remote.view(open_handle(p, cts.handle), st->ring.slot_bytes(),
                        st->ring.depth());
      }
      st->op = eng.start(Dir::kPack, req.dt, req.count,
                         const_cast<void*>(req.buf));
      pump_rdma_send(p, req);
      return;
    }
    case TransferMode::kRdmaPackToRemote: {
      // Contiguous receiver exposed its destination: pack straight into
      // remote device memory, then fin the receiver. The GET ring goes
      // unused, and with this request's state.
      std::byte* remote =
          static_cast<std::byte*>(open_handle(p, cts.handle)) +
          cts.remote_disp;
      st->op = eng.start(Dir::kPack, req.dt, req.count,
                         const_cast<void*>(req.buf));
      const vt::Time last = eng.drain(*st->op, remote, 0,
                                      st->ring.slot_bytes(),
                                      {p.rank(), req.id})
                                .ready;
      FinHeader fin;
      fin.req_id = cts.recv_id;
      fin.to_sender = 0;
      p.am_send(req.env.dst, mpi::Pml::fin_handler(), make_payload(fin),
                last);
      p.pml().complete_send(req);
      return;
    }
    case TransferMode::kStreamTriggered: {
      drive_stream_chain(p, req, cts);
      return;
    }
    case TransferMode::kRdmaRecvDriven:
      throw std::runtime_error(
          "gpu plugin: kRdmaRecvDriven must not produce a CTS");
  }
}

void GpuDatatypePlugin::drive_stream_chain(mpi::Process& p,
                                           mpi::SendRequest& req,
                                           const CtsHeader& cts) {
  auto* st = static_cast<SendState*>(req.plugin.get());
  if (st == nullptr || !st->ring)
    throw std::runtime_error("gpu plugin: stream chain without staging");
  core::GpuDatatypeEngine& eng = engine(p);
  obs::Recorder* rec = p.config().recorder;

  // The chain spans both ranks. The receiver pre-enqueued (and
  // pre-charged) its triggered GETs and unpack launches at CTS time, so
  // the whole per-fragment recurrence is resolved here in one forward
  // pass over stream/event dependencies: pack[f] waits its slot's
  // credit-return event, the GET waits the pack-ready event, the unpack
  // waits the GET, and the GET's completion event is the credit that
  // releases the sender slot for pack[f+depth]. No FragReady/FragFree
  // AMs, no host wakeups per fragment on either rank. Driving the
  // receiver's engine from the sender's rank is safe because ranks run
  // one at a time, and the triggered entry points never touch the
  // receiver's host clock.
  mpi::Process& rp = p.runtime().process(req.env.dst);
  mpi::RecvRequest* rreq = rp.pml().find_recv(cts.recv_id);
  if (rreq == nullptr)
    throw std::runtime_error("gpu plugin: stream chain lost its recv");
  auto* rst = static_cast<RecvState*>(rreq->plugin.get());
  if (rst == nullptr || rst->mode != TransferMode::kStreamTriggered)
    throw std::runtime_error("gpu plugin: stream chain mode mismatch");

  st->op = eng.start(Dir::kPack, req.dt, req.count,
                     const_cast<void*>(req.buf));
  eng.stage_all(*st->op);  // full conversion charged now, at CTS time

  const int sdev = p.gpu().device;
  const int rdev = rp.gpu().device;
  const vt::Time chain_begin = p.clock().now();
  // The rings' slot free times are the credits, resolved forward: a
  // sender slot is free once the receiver drained it (its GET, or without
  // local staging its unpack, crossed back to the sender's device), a
  // receiver slot once its unpack finished.
  vt::Time last_pack = 0;
  while (!st->op->done()) {
    const Packed f = pack_frag(p, req);
    last_pack = f.ready;
    // Pack-ready event, observed across the PCI-E switch by the
    // receiver's triggered queue.
    const vt::Time pack_ready =
        sg::EventReadyOn(p.gpu(), sg::Event{f.ready}, sdev, rdev);
    const Landed l =
        unpack_frag(rp, *rreq, f.k, rst->src.slot(f.k), f.bytes, pack_ready);
    st->ring.free_at(f.k) =
        sg::EventReadyOn(p.gpu(), sg::Event{l.drained}, rdev, sdev);
    obs::count(rec, "pml.stream_triggered.frags");
    obs::count(rec, "pml.stream_triggered.frag.bytes", f.bytes);
  }
  if (rst->op->bytes_done() != rreq->total_bytes)
    throw std::runtime_error("gpu plugin: stream chain incomplete");

  // One fin - the only AM after the rendezvous - sent as soon as the
  // whole chain is posted. It carries no data the receiver waits for: the
  // receiver blocks on its OWN last unpack event (it co-enqueued the
  // chain), so its completion lands at last_ready with no trailing wire
  // hop - the fin merely wakes its progress loop.
  FinHeader fin;
  fin.req_id = st->recv_id;
  fin.to_sender = 0;
  p.am_send(req.env.dst, mpi::Pml::fin_handler(), make_payload(fin));
  // Sender completion: the one remaining host wait is the chain's last
  // credit event - every pack done and the staging ring fully drained.
  const vt::Time drained = std::max(last_pack, st->ring.drained());
  obs::count(rec, "pml.stream_triggered.sends");
  obs::trace(rec, {"stream_chain", "gpu", chain_begin, drained, p.rank(),
                   req.total_bytes, p.rank(), 0});
  finish_send(p, req, drained);
}

void GpuDatatypePlugin::pump_rdma_send(mpi::Process& p,
                                       mpi::SendRequest& req) {
  auto* st = static_cast<SendState*>(req.plugin.get());
  mpi::Btl& btl = p.runtime().btl_between(p.rank(), req.env.dst);
  while (!st->op->done() && st->next_frag - st->acks < st->ring.depth()) {
    const Packed f = pack_frag(p, req);
    vt::Time notify_after = f.ready;
    if (st->remote) {
      // Push the packed fragment into the receiver's ring (one-sided);
      // the local slot is reusable once the put completed.
      notify_after = btl.rdma_put(p, req.env.dst, st->remote.slot(f.k),
                                  st->ring.slot(f.k),
                                  static_cast<std::size_t>(f.bytes), f.ready);
      st->ring.free_at(f.k) = notify_after;
    }
    FragReadyHeader h;
    h.recv_id = st->recv_id;
    h.send_id = req.id;
    h.frag_idx = f.k;
    h.bytes = f.bytes;
    h.last = st->op->done() ? 1 : 0;
    p.am_send(req.env.dst, h_frag_ready_, make_payload(h), notify_after);
  }
  if (st->op->done() && st->acks == st->next_frag) finish_send(p, req);
}

void GpuDatatypePlugin::pump_host_send(mpi::Process& p,
                                       mpi::SendRequest& req) {
  auto* st = static_cast<SendState*>(req.plugin.get());
  while (!st->op->done()) {
    const std::int64_t offset = st->op->bytes_done();
    // A slot is reused once its previous fragment was read onto the wire.
    const Packed f = pack_frag(p, req);
    std::byte* shipped = st->ring.slot(f.k);
    vt::Time ready = f.ready;
    if (st->host) {
      // Explicit staging: D2H copy chained on the pack stream.
      shipped = st->host.slot(f.k);
      ready = sg::MemcpyAsync(p.gpu(), shipped, st->ring.slot(f.k),
                              static_cast<std::size_t>(f.bytes),
                              engine(p).pack_stream());
    }
    FragHeader h;
    h.recv_id = st->recv_id;
    h.offset = offset;
    h.bytes = f.bytes;
    h.last = st->op->done() ? 1 : 0;
    auto payload = make_payload(h, static_cast<std::size_t>(f.bytes));
    std::memcpy(payload.data() + sizeof(FragHeader), shipped,
                static_cast<std::size_t>(f.bytes));
    st->ring.free_at(f.k) = p.am_send(
        req.env.dst, mpi::Pml::frag_handler(), std::move(payload), ready);
  }
  finish_send(p, req);
}

// --- Receiver side ----------------------------------------------------------------------

void GpuDatatypePlugin::recv_start(mpi::Process& p, mpi::RecvRequest& req,
                                   const RtsHeader& rts, vt::Time arrival) {
  const mpi::RuntimeConfig& cfg = p.config();
  req.total_bytes = rts.total_bytes;
  CtsHeader cts;

  if (req.space.space != sg::MemorySpace::kDevice) {
    // Host destination: behave exactly like the host rendezvous receiver;
    // the (GPU) sender will stream host-packed fragments.
    req.cursor = mpi::BlockCursor(req.dt, req.count);
    cts.mode = TransferMode::kHostFrags;
    cts.frag_bytes = static_cast<std::int64_t>(cfg.frag_bytes);
    reply_cts(p, req, rts, cts);
    return;
  }

  auto st = std::make_unique<RecvState>();
  RecvState& s = *st;
  s.send_id = rts.send_id;
  s.src_rank = rts.env.src;
  req.plugin = std::move(st);
  core::GpuDatatypeEngine& eng = engine(p);
  mpi::Btl& btl = p.runtime().btl_between(p.rank(), rts.env.src);
  const bool rdma = rts.src_is_device && rts.has_handle &&
                    btl.supports_gpu_rdma(p, rts.env.src) &&
                    rts.total_bytes > 0 &&
                    rts.total_bytes <= btl.gpu_rdma_limit(p);

  if (!rdma) {
    // Copy-in/out receive side: unpack each arrived fragment in place
    // (zero-copy) or from a one-slot device bounce.
    s.mode = TransferMode::kHostFrags;
    const std::int64_t frag =
        frag_size(p, static_cast<std::int64_t>(cfg.gpu_frag_bytes), &btl);
    s.op = eng.start(Dir::kUnpack, req.dt, req.count, req.buf);
    if (!cfg.zero_copy) {
      s.land = RecvState::Land::kCopyIn;
      s.ring.allocate(p.gpu(), Memory::kDevice, frag, 1);
    }
    cts.mode = TransferMode::kHostFrags;
    cts.frag_bytes = frag;
    cts.depth = cfg.gpu_pipeline_depth;
    reply_cts(p, req, rts, cts);
    return;
  }

  if (rts.src_contiguous) {
    // Receiver-driven GET from the exposed contiguous source, whose
    // fragments lie end to end: a ring that never wraps.
    s.mode = TransferMode::kRdmaRecvDriven;
    s.src.view(
        static_cast<std::byte*>(open_handle(p, rts.handle)) + rts.src_disp,
        rts.frag_bytes,
        (rts.total_bytes + rts.frag_bytes - 1) / rts.frag_bytes);
    obs::count(cfg.recorder, kModeCounter[static_cast<int>(s.mode)]);
    drive_recv_from_contiguous(p, req, rts, arrival);
    return;
  }

  if (req.dt->is_contiguous(req.count)) {
    // Shortcut: expose my destination; the sender packs into it directly.
    s.mode = TransferMode::kRdmaPackToRemote;
    cts.mode = TransferMode::kRdmaPackToRemote;
    cts.has_handle = 1;
    cts.handle = sg::IpcGetMemHandle(p.gpu(), req.buf);
    cts.remote_disp = req.dt->true_lb();
    cts.frag_bytes = rts.frag_bytes;
    reply_cts(p, req, rts, cts);
    return;  // completion arrives as a fin
  }

  // Full pipelined RDMA protocol, in the sender's ring geometry.
  s.op = eng.start(Dir::kUnpack, req.dt, req.count, req.buf);
  const bool stream_triggered =
      mpi::stream_triggered_switch.enabled(cfg.stream_triggered);
  s.mode = TransferMode::kIpcRdma;
  if (stream_triggered && !cfg.rdma_put_mode) {
    // Stream-triggered chain (docs/protocols.md): this CTS is the last
    // per-message host work on this rank until the sender's fin. The
    // whole conversion is staged and uploaded now, the ring is allocated
    // now, and the host charge for posting every triggered GET and unpack
    // launch of the chain lands here - the chain driver (sender side,
    // drive_stream_chain) then resolves the per-fragment recurrence
    // purely through stream/event dependencies.
    s.mode = TransferMode::kStreamTriggered;
    eng.stage_all(*s.op);
  }
  if (cfg.rdma_put_mode) {
    // PUT mode: expose MY staging ring; the sender pushes fragments in,
    // and each is unpacked where it landed.
    s.ring.allocate(p.gpu(), Memory::kDevice, rts.frag_bytes, rts.depth);
    s.src.view(s.ring.base(), rts.frag_bytes, rts.depth);
    cts.has_handle = 1;
    cts.handle = sg::IpcGetMemHandle(p.gpu(), s.ring.base());
  } else {
    s.src.view(open_handle(p, rts.handle), rts.frag_bytes, rts.depth);
    if (cfg.recv_local_staging && rts.src_device != p.gpu().device) {
      // GET each fragment into a local ring before unpacking it
      // (Section 5.2's local staging).
      s.land = RecvState::Land::kGet;
      s.ring.allocate(p.gpu(), Memory::kDevice, rts.frag_bytes, rts.depth);
    }
  }
  cts.mode = s.mode;
  cts.frag_bytes = rts.frag_bytes;
  cts.depth = rts.depth;
  reply_cts(p, req, rts, cts);
  if (s.mode == TransferMode::kStreamTriggered) {
    // Posting charge for the chain: one triggered launch (and one GET
    // post, when staging locally) per fragment. Charged after the CTS is
    // on the wire - the posting overlaps the CTS flight and the sender's
    // own staging, exactly the overlap the offloaded path exists for -
    // but still at rendezvous time: the host never wakes per fragment.
    const std::int64_t nfrags =
        (rts.total_bytes + rts.frag_bytes - 1) / rts.frag_bytes;
    const vt::Time enq = p.gpu().cost().enqueue_ns;
    const vt::Time t0 = p.clock().now();
    p.clock().advance(static_cast<vt::Time>(nfrags) * enq *
                      (s.ring ? 2 : 1));
    obs::count(cfg.recorder, "pml.stream_triggered.recvs");
    obs::observe(cfg.recorder, "pml.stream_triggered.enqueue_ns",
                 p.clock().now() - t0);
    obs::trace(cfg.recorder, {"chain_enqueue", "gpu", t0, p.clock().now(),
                              p.rank(), nfrags, p.rank(), 0});
    return;  // completion arrives as the sender's fin (recv_fin)
  }
  // The triggered recurrence is formulated receiver-GET-side, so PUT
  // mode runs the host-driven protocol instead - counted, not silent.
  if (stream_triggered)
    obs::count(cfg.recorder, "pml.stream_triggered.fallbacks");
}

void GpuDatatypePlugin::drive_recv_from_contiguous(mpi::Process& p,
                                                   mpi::RecvRequest& req,
                                                   const RtsHeader& rts,
                                                   vt::Time arrival) {
  auto* st = static_cast<RecvState*>(req.plugin.get());
  const mpi::RuntimeConfig& cfg = p.config();
  const sg::PtrAttributes remote_attr =
      p.runtime().machine().query(st->src.base());
  const bool same_device = remote_attr.space == sg::MemorySpace::kDevice &&
                           remote_attr.device == p.gpu().device;

  if (req.dt->is_contiguous(req.count)) {
    // Contiguous on both ends: one big one-sided get into place. The
    // single GET is the whole flow, so it must carry the frag-flow id -
    // without this span the latency engine has no time window for the
    // contiguous-send class and would count the flow dropped.
    auto* dst = static_cast<std::byte*>(req.buf) + req.dt->true_lb();
    const vt::Time t_start = std::max(arrival, p.clock().now());
    if (same_device) {
      st->last_ready = sg::TimedCopy(
          p.gpu(), dst, st->src.base(),
          static_cast<std::size_t>(req.total_bytes), t_start,
          "recv_contig_get");
    } else {
      st->last_ready =
          p.runtime().btl_between(p.rank(), st->src_rank).rdma_get(
              p, st->src_rank, dst, st->src.base(),
              static_cast<std::size_t>(req.total_bytes), t_start);
    }
    obs::trace(cfg.recorder, {"rdma_frag", "gpu", t_start, st->last_ready,
                              p.rank(), req.total_bytes, p.rank(),
                              mpi::frag_flow(st->src_rank, st->send_id, 0),
                              obs::Stage::kRdma});
  } else {
    // Pipelined: GET fragments into a local ring and unpack behind the
    // GETs; on the same device, or with local staging off (the slower
    // remote-read option), unpack straight out of the exposed source.
    st->op = engine(p).start(Dir::kUnpack, req.dt, req.count, req.buf);
    if (!same_device && cfg.recv_local_staging) {
      st->land = RecvState::Land::kGet;
      st->ring.allocate(p.gpu(), Memory::kDevice, rts.frag_bytes, rts.depth);
    }
    for (std::int64_t k = 0; st->op->bytes_done() < req.total_bytes; ++k) {
      const std::int64_t n = std::min(
          st->src.slot_bytes(), req.total_bytes - st->op->bytes_done());
      // This host posts each GET; an unpack in place waits only for the
      // source the RTS exposed.
      const vt::Time avail =
          st->ring ? std::max(arrival, p.clock().now()) : arrival;
      unpack_frag(p, req, k, st->src.slot(k), n, avail);
    }
  }

  finish_recv(p, req);
  FinHeader fin;
  fin.req_id = st->send_id;
  fin.to_sender = 1;
  p.am_send(st->src_rank, mpi::Pml::fin_handler(), make_payload(fin),
            st->last_ready);
  p.pml().complete_recv(req);
}

void GpuDatatypePlugin::on_frag_ready(mpi::Process& p, mpi::AmMessage& m) {
  const FragReadyHeader h = read_header<FragReadyHeader>(m);
  mpi::RecvRequest* req = p.pml().find_recv(h.recv_id);
  if (req == nullptr)
    throw std::runtime_error("gpu plugin: frag-ready for unknown recv");
  auto* st = static_cast<RecvState*>(req->plugin.get());
  // GET the fragment into the local ring and unpack it there, or unpack
  // it where it sits: in the sender's ring (same device, or the
  // remote-read option) or, under PUT, in mine.
  const Landed l = unpack_frag(p, *req, h.frag_idx, st->src.slot(h.frag_idx),
                               h.bytes, p.clock().now());
  // The pipelined-RDMA fragments bypass Pml::on_frag, so the per-frag
  // rendezvous latencies are recorded here. The rdma_frag span covers
  // the fragment from its announce to its unpack.
  p.pml().record_frag_arrival(*req, h.bytes, m.arrival);
  obs::Recorder* rec = p.config().recorder;
  obs::observe(rec, "gpu.frag.unpack_ns", l.ready - m.arrival);
  obs::trace(rec, {"rdma_frag", "gpu", m.arrival, l.ready, p.rank(), h.bytes,
                   p.rank(), l.flow, obs::Stage::kRdma});

  // The ack frees the slot the fragment was taken from: the sender's once
  // the GET drained it, else (in place, or my PUT slot) once unpacked.
  FragFreeHeader ack;
  ack.send_id = st->send_id;
  ack.frag_idx = h.frag_idx;
  p.am_send(st->src_rank, h_frag_free_, make_payload(ack), l.drained);

  if (h.last) {
    finish_recv(p, *req);
    p.pml().complete_recv(*req);
  }
}

void GpuDatatypePlugin::on_frag_free(mpi::Process& p, mpi::AmMessage& m) {
  const FragFreeHeader h = read_header<FragFreeHeader>(m);
  mpi::SendRequest* req = p.pml().find_send(h.send_id);
  if (req == nullptr)
    throw std::runtime_error("gpu plugin: frag-free for unknown send");
  ++static_cast<SendState*>(req->plugin.get())->acks;
  pump_rdma_send(p, *req);
}

void GpuDatatypePlugin::recv_on_frag(mpi::Process& p, mpi::RecvRequest& req,
                                     const FragHeader& hdr,
                                     std::span<const std::byte> data,
                                     vt::Time arrival) {
  auto* st = static_cast<RecvState*>(req.plugin.get());
  if (st == nullptr || st->mode != TransferMode::kHostFrags)
    throw std::runtime_error("gpu plugin: unexpected host fragment");
  if (hdr.offset != st->op->bytes_done())
    throw std::runtime_error("gpu plugin: out-of-order fragment");

  if (hdr.bytes > 0) {
    ScopedStagingRegistration staging(p.runtime().machine(), data.data(),
                                      static_cast<std::size_t>(hdr.bytes));
    // Zero-copy: the unpack kernel reads the arrived host bytes over
    // PCI-E directly (UMA mapping). Pml::on_frag counted this fragment,
    // in order, in frags_seen.
    const Landed l = unpack_frag(p, req, req.frags_seen - 1, data.data(),
                                 hdr.bytes, arrival);
    // Arrival gaps were recorded by Pml::on_frag before dispatching here;
    // add the device-side unpack latency of this fragment.
    obs::observe(p.config().recorder, "gpu.frag.unpack_ns",
                 l.ready - arrival);
    obs::trace(p.config().recorder,
               {"host_frag_unpack", "gpu", arrival, l.ready, p.rank(),
                hdr.bytes, p.rank(), l.flow, obs::Stage::kUnpack});
  }

  if (hdr.last) {
    finish_recv(p, req);
    p.pml().complete_recv(req);
  }
}

void GpuDatatypePlugin::recv_eager(mpi::Process& p, mpi::RecvRequest& req,
                                   std::span<const std::byte> data,
                                   vt::Time arrival) {
  core::GpuDatatypeEngine& eng = engine(p);
  auto op = eng.start(Dir::kUnpack, req.dt, req.count, req.buf);
  // Eager messages skip the rendezvous, so there is no RTS-carried
  // send_id to derive a cross-rank frag_flow from; the unpack spans stay
  // flow-less rather than fabricating a colliding id. The posted layout
  // may be larger than the message: only data.size() bytes move.
  const auto n = static_cast<std::int64_t>(data.size());
  core::GpuDatatypeEngine::Result res;
  {
    ScopedStagingRegistration staging(p.runtime().machine(), data.data(),
                                      data.size());
    res = eng.drain(*op, const_cast<std::byte*>(data.data()), arrival, 0, {},
                    n);
  }
  if (res.bytes != n)
    throw std::runtime_error("gpu plugin: eager unpack size mismatch");
  req.total_bytes = n;
  p.clock().wait_until(res.ready);
  p.pml().complete_recv(req);
}

void GpuDatatypePlugin::recv_fin(mpi::Process& p, mpi::RecvRequest& req,
                                 vt::Time arrival) {
  auto* st = static_cast<RecvState*>(req.plugin.get());
  if (st == nullptr || st->mode != TransferMode::kStreamTriggered) return;
  // First host wakeup this transfer caused on the receiving rank since
  // the CTS: the chain driver already moved every byte and resolved
  // every kernel's virtual time through the triggered entry points.
  finish_recv(p, req, arrival);
  obs::trace(p.config().recorder,
             {"stream_chain", "gpu", req.cts_sent, st->last_ready, p.rank(),
              st->op->bytes_done(), p.rank(), 0});
}

}  // namespace gpuddt::proto

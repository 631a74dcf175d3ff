#include "protocols/gpu_plugin.h"

#include <cstring>
#include <stdexcept>
#include <vector>

#include "obs/recorder.h"
#include "simgpu/staging.h"

namespace gpuddt::proto {

namespace {

using mpi::CtsHeader;
using mpi::FinHeader;
using mpi::FragHeader;
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

template <typename H>
std::vector<std::byte> make_payload(const H& h, std::size_t extra = 0) {
  std::vector<std::byte> v(sizeof(H) + extra);
  std::memcpy(v.data(), &h, sizeof(H));
  return v;
}

template <typename H>
H read_header(const mpi::AmMessage& m) {
  if (m.payload.size() < sizeof(H))
    throw std::runtime_error("gpu plugin: truncated AM payload");
  H h;
  std::memcpy(&h, m.payload.data(), sizeof(H));
  return h;
}

// Receiver-side unpack reads AM payload bytes in place; register the
// span for the duration of the handler (simgpu/staging.h).
using sg::ScopedStagingRegistration;

using Dir = core::GpuDatatypeEngine::Dir;

core::EngineConfig engine_config(const mpi::RuntimeConfig& cfg,
                                 std::int32_t trace_pid) {
  core::EngineConfig e;
  e.unit_bytes = cfg.dev_unit_bytes;
  e.cache_enabled = cfg.dev_cache_enabled;
  e.cache_max_bytes = cfg.dev_cache_max_bytes;
  e.kernel_blocks = cfg.gpu_kernel_blocks;
  e.pipeline_conversion = cfg.dev_pipeline_conversion;
  e.recorder = cfg.recorder;
  e.trace_pid = trace_pid;
  return e;
}

}  // namespace

// --- Per-request protocol state ----------------------------------------------

struct GpuDatatypePlugin::SendState : mpi::PluginState {
  std::unique_ptr<core::GpuDatatypeEngine::Op> op;
  TransferMode mode = TransferMode::kHostFrags;
  std::uint64_t recv_id = 0;
  std::int64_t frag_bytes = 0;
  int depth = 0;

  // kIpcRdma: device staging ring exposed to the receiver (GET mode) or
  // kept local with fragments pushed to `remote_ring` (PUT mode).
  std::byte* staging = nullptr;
  std::byte* remote_ring = nullptr;
  std::int64_t next_frag = 0;
  std::int64_t frags_sent = 0;
  std::int64_t acks = 0;
  bool all_packed = false;

  // kHostFrags: host bounce (zero-copy mapped) and optional GPU bounce.
  std::byte* host_bounce = nullptr;
  std::byte* gpu_bounce = nullptr;
  std::vector<vt::Time> slot_free;  // per-slot wire-read completion
};

struct GpuDatatypePlugin::RecvState : mpi::PluginState {
  std::unique_ptr<core::GpuDatatypeEngine::Op> op;
  TransferMode mode = TransferMode::kHostFrags;
  std::uint64_t send_id = 0;
  int src_rank = -1;

  // RDMA family.
  std::byte* remote = nullptr;  // sender staging ring or contiguous source
  bool put_mode = false;        // fragments arrive in MY local ring
  std::int64_t frag_bytes = 0;
  int depth = 0;
  std::byte* local_staging = nullptr;  // device-local bounce ring
  std::vector<vt::Time> slot_free;

  // kHostFrags.
  std::byte* gpu_bounce = nullptr;
  std::int64_t gpu_bounce_bytes = 0;

  std::int64_t bytes_done = 0;
  vt::Time last_ready = 0;
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

// --- Sender side ---------------------------------------------------------------------

void GpuDatatypePlugin::send_start(mpi::Process& p, mpi::SendRequest& req) {
  const mpi::RuntimeConfig& cfg = p.config();

  // Small-message tier: pack into a zero-copy host buffer and ship one
  // eager AM - no handshake, no staging ring, no acks.
  if (req.total_bytes <= static_cast<std::int64_t>(cfg.gpu_eager_limit)) {
    core::GpuDatatypeEngine& eng = engine(p);
    auto* bounce = static_cast<std::byte*>(sg::HostAlloc(
        p.gpu(), static_cast<std::size_t>(req.total_bytes + 1), true));
    auto op = eng.start(Dir::kPack, req.dt, req.count,
                        const_cast<void*>(req.buf));
    const vt::Time ready = eng.drain(*op, bounce).ready;
    p.pml().send_packed_eager(
        req.env,
        std::span<const std::byte>(bounce,
                                   static_cast<std::size_t>(req.total_bytes)),
        ready);
    sg::HostFree(p.gpu(), bounce);
    obs::count(cfg.recorder, "gpu.sends.eager");
    p.pml().complete_send(req);
    return;
  }

  auto st = std::make_unique<SendState>();
  st->frag_bytes =
      std::max<std::int64_t>(static_cast<std::int64_t>(cfg.gpu_frag_bytes),
                             cfg.dev_unit_bytes);
  st->depth = std::max(1, cfg.gpu_pipeline_depth);

  RtsHeader rts;
  rts.env = req.env;
  rts.send_id = req.id;
  rts.total_bytes = req.total_bytes;
  rts.src_is_device = 1;
  rts.src_contiguous = req.dt->is_contiguous(req.count) ? 1 : 0;
  rts.src_device = req.space.device;
  rts.src_node = p.node();
  rts.frag_bytes = st->frag_bytes;
  rts.depth = st->depth;
  rts.sig_hash = req.dt->signature().hash();

  mpi::Btl& btl = p.runtime().btl_between(p.rank(), req.env.dst);
  if (btl.supports_gpu_rdma(p, req.env.dst) && req.total_bytes > 0 &&
      req.total_bytes <= btl.gpu_rdma_limit(p)) {
    if (rts.src_contiguous) {
      // Shortcut: expose the source buffer itself; the receiver drives
      // the whole transfer and fins us.
      rts.has_handle = 1;
      rts.handle =
          sg::IpcGetMemHandle(p.gpu(), const_cast<void*>(req.buf));
      rts.src_disp = req.dt->true_lb();
    } else {
      st->staging = static_cast<std::byte*>(
          sg::Malloc(p.gpu(), static_cast<std::size_t>(st->frag_bytes) *
                                  static_cast<std::size_t>(st->depth)));
      rts.has_handle = 1;
      rts.handle = sg::IpcGetMemHandle(p.gpu(), st->staging);
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
  st->mode = cts.mode;
  core::GpuDatatypeEngine& eng = engine(p);

  switch (cts.mode) {
    case TransferMode::kHostFrags: {
      // Receiver declined (or cannot do) RDMA: copy-in/out protocol.
      if (st->staging != nullptr) {
        sg::Free(p.gpu(), st->staging);
        st->staging = nullptr;
      }
      const mpi::RuntimeConfig& cfg = p.config();
      mpi::Btl& btl = p.runtime().btl_between(p.rank(), req.env.dst);
      std::int64_t frag = cts.frag_bytes > 0 ? cts.frag_bytes : st->frag_bytes;
      frag = std::min<std::int64_t>(
          frag, static_cast<std::int64_t>(btl.max_am_payload() -
                                          sizeof(FragHeader)));
      frag = std::max<std::int64_t>(frag, cfg.dev_unit_bytes);
      st->frag_bytes = frag;
      const std::size_t ring =
          static_cast<std::size_t>(frag) * static_cast<std::size_t>(st->depth);
      if (cfg.zero_copy) {
        st->host_bounce =
            static_cast<std::byte*>(sg::HostAlloc(p.gpu(), ring, true));
      } else {
        st->gpu_bounce = static_cast<std::byte*>(sg::Malloc(p.gpu(), ring));
        st->host_bounce =
            static_cast<std::byte*>(sg::HostAlloc(p.gpu(), ring, false));
      }
      st->slot_free.assign(static_cast<std::size_t>(st->depth), 0);
      st->op = eng.start(Dir::kPack, req.dt, req.count,
                         const_cast<void*>(req.buf));
      pump_host_send(p, req);
      return;
    }
    case TransferMode::kIpcRdma: {
      if (cts.has_handle) {
        // PUT mode: the receiver exposed its staging ring; we keep our
        // ring local and push each packed fragment across.
        st->remote_ring =
            static_cast<std::byte*>(open_handle(p, cts.handle));
        st->slot_free.assign(static_cast<std::size_t>(st->depth), 0);
      }
      st->op = eng.start(Dir::kPack, req.dt, req.count,
                         const_cast<void*>(req.buf));
      pump_rdma_send(p, req);
      return;
    }
    case TransferMode::kRdmaPackToRemote: {
      // Contiguous receiver exposed its destination: pack straight into
      // remote device memory, then fin the receiver.
      std::byte* remote_base =
          static_cast<std::byte*>(open_handle(p, cts.handle));
      std::byte* remote = remote_base + cts.remote_disp;
      st->op = eng.start(Dir::kPack, req.dt, req.count,
                         const_cast<void*>(req.buf));
      const vt::Time last =
          eng.drain(*st->op, remote, 0, st->frag_bytes, {p.rank(), req.id})
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
  if (st == nullptr || st->staging == nullptr)
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
  core::GpuDatatypeEngine& reng = engine(rp);
  mpi::Btl& btl = p.runtime().btl_between(p.rank(), req.env.dst);

  st->op = eng.start(Dir::kPack, req.dt, req.count,
                     const_cast<void*>(req.buf));
  eng.stage_all(*st->op);  // full conversion charged now, at CTS time

  const int sdev = p.gpu().device;
  const int rdev = rp.gpu().device;
  const bool staged = rst->local_staging != nullptr;
  const int depth = std::max(1, st->depth);
  const int rdepth = std::max(1, rst->depth);
  const vt::Time chain_begin = p.clock().now();

  // Per-slot credits, resolved forward. scredit[s]: earliest the sender
  // may overwrite staging slot s (the consuming GET's - or, without local
  // staging, the unpack's - completion event crossed back to the sender's
  // timeline). rcredit[s]: earliest receiver ring slot s may be
  // overwritten (its previous unpack, same-device so free).
  std::vector<vt::Time> scredit(static_cast<std::size_t>(depth), 0);
  std::vector<vt::Time> rcredit(static_cast<std::size_t>(rdepth), 0);
  std::int64_t frag = 0;
  vt::Time last_pack = 0;

  while (!st->op->done()) {
    const std::int64_t slot = frag % depth;
    const std::int64_t rslot = frag % rdepth;
    const std::uint64_t flow = mpi::frag_flow(p.rank(), req.id, frag);
    st->op->set_flow(flow);
    const auto res = eng.process_some(
        *st->op, st->staging + slot * st->frag_bytes, st->frag_bytes,
        scredit[static_cast<std::size_t>(slot)]);
    if (res.bytes == 0) break;
    last_pack = res.ready;
    // Pack-ready event, observed across the PCI-E switch by the
    // receiver's triggered queue.
    const vt::Time pack_ready =
        sg::EventReadyOn(p.gpu(), sg::Event{res.ready}, sdev, rdev);
    std::byte* unpack_src;
    vt::Time unpack_dep;
    if (staged) {
      std::byte* local = rst->local_staging + rslot * st->frag_bytes;
      const vt::Time t_start =
          std::max(pack_ready, rcredit[static_cast<std::size_t>(rslot)]);
      const vt::Time t_get = btl.rdma_get(
          rp, p.rank(), local, rst->remote + slot * st->frag_bytes,
          static_cast<std::size_t>(res.bytes), t_start);
      obs::trace(rec, {"rdma_frag", "gpu", t_start, t_get, rp.rank(),
                       res.bytes, rp.rank(), flow});
      unpack_src = local;
      unpack_dep = t_get;  // local DMA completion: same-device event
      // The GET drained the sender slot; its completion event is the
      // credit (crossed back to the sender's device).
      scredit[static_cast<std::size_t>(slot)] =
          sg::EventReadyOn(p.gpu(), sg::Event{t_get}, rdev, sdev);
    } else {
      // Unpack straight out of the sender's ring (same device, or the
      // remote-read option): the slot stays busy until the unpack read
      // its last byte.
      unpack_src = rst->remote + slot * st->frag_bytes;
      unpack_dep = pack_ready;
    }
    const auto rres = reng.process_triggered(*rst->op, unpack_src, res.bytes,
                                            unpack_dep, flow);
    if (rres.bytes != res.bytes)
      throw std::runtime_error("gpu plugin: stream chain size mismatch");
    rcredit[static_cast<std::size_t>(rslot)] = rres.ready;
    if (!staged) {
      scredit[static_cast<std::size_t>(slot)] =
          sg::EventReadyOn(p.gpu(), sg::Event{rres.ready}, rdev, sdev);
    }
    rst->bytes_done += res.bytes;
    rst->last_ready = rres.ready;
    obs::count(rec, "pml.stream_triggered.frags");
    obs::count(rec, "pml.stream_triggered.frag.bytes", res.bytes);
    ++frag;
  }
  if (!st->op->done() || rst->bytes_done != rreq->total_bytes)
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
  vt::Time drained = last_pack;
  for (const vt::Time t : scredit) drained = std::max(drained, t);
  eng.finish(*st->op);
  p.clock().wait_until(drained);
  sg::Free(p.gpu(), st->staging);
  st->staging = nullptr;
  obs::count(rec, "pml.stream_triggered.sends");
  obs::trace(rec, {"stream_chain", "gpu", chain_begin, drained, p.rank(),
                   req.total_bytes, p.rank(), 0});
  p.pml().complete_send(req);
}

void GpuDatatypePlugin::pump_rdma_send(mpi::Process& p,
                                       mpi::SendRequest& req) {
  auto* st = static_cast<SendState*>(req.plugin.get());
  core::GpuDatatypeEngine& eng = engine(p);
  mpi::Btl& btl = p.runtime().btl_between(p.rank(), req.env.dst);
  while (!st->op->done() && st->frags_sent - st->acks < st->depth) {
    const std::int64_t slot = st->next_frag % st->depth;
    // In PUT mode the local slot is reusable once its last put completed.
    const vt::Time slot_dep =
        st->remote_ring != nullptr
            ? st->slot_free[static_cast<std::size_t>(slot)]
            : 0;
    st->op->set_flow(mpi::frag_flow(p.rank(), req.id, st->next_frag));
    const auto res =
        eng.process_some(*st->op, st->staging + slot * st->frag_bytes,
                         st->frag_bytes, slot_dep);
    if (res.bytes == 0) break;
    vt::Time notify_after = res.ready;
    if (st->remote_ring != nullptr) {
      // Push the packed fragment into the receiver's ring (one-sided).
      notify_after = btl.rdma_put(
          p, req.env.dst, st->remote_ring + slot * st->frag_bytes,
          st->staging + slot * st->frag_bytes,
          static_cast<std::size_t>(res.bytes), res.ready);
      st->slot_free[static_cast<std::size_t>(slot)] = notify_after;
    }
    FragReadyHeader h;
    h.recv_id = st->recv_id;
    h.send_id = req.id;
    h.frag_idx = st->next_frag;
    h.bytes = res.bytes;
    h.last = st->op->done() ? 1 : 0;
    p.am_send(req.env.dst, h_frag_ready_, make_payload(h), notify_after);
    ++st->next_frag;
    ++st->frags_sent;
  }
  if (st->op->done()) st->all_packed = true;
  maybe_complete_rdma_send(p, req);
}

void GpuDatatypePlugin::maybe_complete_rdma_send(mpi::Process& p,
                                                 mpi::SendRequest& req) {
  auto* st = static_cast<SendState*>(req.plugin.get());
  if (!st->all_packed || st->acks != st->frags_sent) return;
  core::GpuDatatypeEngine& eng = engine(p);
  eng.finish(*st->op);
  if (st->staging != nullptr) {
    sg::Free(p.gpu(), st->staging);
    st->staging = nullptr;
  }
  p.pml().complete_send(req);
}

void GpuDatatypePlugin::pump_host_send(mpi::Process& p,
                                       mpi::SendRequest& req) {
  auto* st = static_cast<SendState*>(req.plugin.get());
  core::GpuDatatypeEngine& eng = engine(p);
  const bool zero_copy = st->gpu_bounce == nullptr;

  if (req.total_bytes == 0) {
    FragHeader h;
    h.recv_id = st->recv_id;
    h.offset = 0;
    h.bytes = 0;
    h.last = 1;
    p.am_send(req.env.dst, mpi::Pml::frag_handler(), make_payload(h));
    eng.finish(*st->op);
    p.pml().complete_send(req);
    return;
  }

  while (!st->op->done()) {
    const std::int64_t slot = st->next_frag % st->depth;
    std::byte* gpu_slot =
        zero_copy ? nullptr : st->gpu_bounce + slot * st->frag_bytes;
    std::byte* host_slot = st->host_bounce + slot * st->frag_bytes;
    const std::int64_t offset = st->op->bytes_done();
    // Pack into the slot; reuse must wait until the previous occupant's
    // bytes were read onto the wire (virtual-time dependency).
    st->op->set_flow(mpi::frag_flow(p.rank(), req.id, st->next_frag));
    const auto res = eng.process_some(
        *st->op, zero_copy ? static_cast<void*>(host_slot)
                           : static_cast<void*>(gpu_slot),
        st->frag_bytes,
        st->slot_free[static_cast<std::size_t>(slot)]);
    if (res.bytes == 0) break;
    vt::Time ready = res.ready;
    if (!zero_copy) {
      // Explicit staging: D2H copy chained on the pack stream.
      ready = sg::MemcpyAsync(p.gpu(), host_slot, gpu_slot,
                              static_cast<std::size_t>(res.bytes),
                              eng.pack_stream());
    }
    FragHeader h;
    h.recv_id = st->recv_id;
    h.offset = offset;
    h.bytes = res.bytes;
    h.last = st->op->done() ? 1 : 0;
    auto payload = make_payload(h, static_cast<std::size_t>(res.bytes));
    std::memcpy(payload.data() + sizeof(FragHeader), host_slot,
                static_cast<std::size_t>(res.bytes));
    st->slot_free[static_cast<std::size_t>(slot)] = p.am_send(
        req.env.dst, mpi::Pml::frag_handler(), std::move(payload), ready);
    ++st->next_frag;
  }
  eng.finish(*st->op);
  if (st->host_bounce != nullptr) sg::HostFree(p.gpu(), st->host_bounce);
  if (st->gpu_bounce != nullptr) sg::Free(p.gpu(), st->gpu_bounce);
  st->host_bounce = nullptr;
  st->gpu_bounce = nullptr;
  p.pml().complete_send(req);
}

// --- Receiver side ----------------------------------------------------------------------

void GpuDatatypePlugin::recv_start(mpi::Process& p, mpi::RecvRequest& req,
                                   const RtsHeader& rts, vt::Time arrival) {
  const mpi::RuntimeConfig& cfg = p.config();
  req.total_bytes = rts.total_bytes;
  const bool my_dev = req.space.space == sg::MemorySpace::kDevice;

  if (!my_dev) {
    // Host destination: behave exactly like the host rendezvous receiver;
    // the (GPU) sender will stream host-packed fragments.
    req.cursor = mpi::BlockCursor(req.dt, req.count);
    CtsHeader cts;
    cts.send_id = rts.send_id;
    cts.recv_id = req.id;
    cts.mode = TransferMode::kHostFrags;
    cts.frag_bytes = static_cast<std::int64_t>(cfg.frag_bytes);
    p.am_send(rts.env.src, mpi::Pml::cts_handler(), make_payload(cts));
    req.cts_sent = p.clock().now();
    obs::count(cfg.recorder, "gpu.mode.host_frags");
    return;
  }

  auto st = std::make_unique<RecvState>();
  st->send_id = rts.send_id;
  st->src_rank = rts.env.src;
  core::GpuDatatypeEngine& eng = engine(p);
  mpi::Btl& btl = p.runtime().btl_between(p.rank(), rts.env.src);
  const bool rdma = rts.src_is_device && rts.has_handle &&
                    btl.supports_gpu_rdma(p, rts.env.src) &&
                    rts.total_bytes > 0 &&
                    rts.total_bytes <= btl.gpu_rdma_limit(p);

  if (!rdma) {
    // Copy-in/out receive side.
    st->mode = TransferMode::kHostFrags;
    st->frag_bytes = std::max<std::int64_t>(
        std::min<std::int64_t>(
            static_cast<std::int64_t>(cfg.gpu_frag_bytes),
            static_cast<std::int64_t>(btl.max_am_payload() -
                                      sizeof(FragHeader))),
        cfg.dev_unit_bytes);
    st->op = eng.start(Dir::kUnpack, req.dt, req.count, req.buf);
    if (!cfg.zero_copy) {
      st->gpu_bounce_bytes = st->frag_bytes;
      st->gpu_bounce = static_cast<std::byte*>(
          sg::Malloc(p.gpu(), static_cast<std::size_t>(st->frag_bytes)));
    }
    CtsHeader cts;
    cts.send_id = rts.send_id;
    cts.recv_id = req.id;
    cts.mode = TransferMode::kHostFrags;
    cts.frag_bytes = st->frag_bytes;
    cts.depth = cfg.gpu_pipeline_depth;
    req.plugin = std::move(st);
    p.am_send(rts.env.src, mpi::Pml::cts_handler(), make_payload(cts));
    req.cts_sent = p.clock().now();
    obs::count(cfg.recorder, "gpu.mode.host_frags");
    return;
  }

  if (rts.src_contiguous) {
    // Receiver-driven GET from the exposed contiguous source.
    st->mode = TransferMode::kRdmaRecvDriven;
    st->remote = static_cast<std::byte*>(open_handle(p, rts.handle)) +
                 rts.src_disp;
    st->frag_bytes = rts.frag_bytes;
    st->depth = rts.depth;
    req.plugin = std::move(st);
    obs::count(cfg.recorder, "gpu.mode.rdma_recv_driven");
    drive_recv_from_contiguous(p, req, arrival);
    return;
  }

  if (req.dt->is_contiguous(req.count)) {
    // Shortcut: expose my destination; the sender packs into it directly.
    st->mode = TransferMode::kRdmaPackToRemote;
    CtsHeader cts;
    cts.send_id = rts.send_id;
    cts.recv_id = req.id;
    cts.mode = TransferMode::kRdmaPackToRemote;
    cts.has_handle = 1;
    cts.handle = sg::IpcGetMemHandle(p.gpu(), req.buf);
    cts.remote_disp = req.dt->true_lb();
    cts.frag_bytes = rts.frag_bytes;
    req.plugin = std::move(st);
    p.am_send(rts.env.src, mpi::Pml::cts_handler(), make_payload(cts));
    req.cts_sent = p.clock().now();
    obs::count(cfg.recorder, "gpu.mode.rdma_pack_remote");
    return;  // completion arrives as a fin
  }

  // Full pipelined RDMA protocol.
  st->frag_bytes = rts.frag_bytes;
  st->depth = rts.depth;
  st->op = eng.start(Dir::kUnpack, req.dt, req.count, req.buf);

  const bool stream_triggered =
      mpi::stream_triggered_switch.enabled(cfg.stream_triggered);
  if (stream_triggered && !cfg.rdma_put_mode) {
    // Stream-triggered chain (docs/protocols.md): this CTS is the last
    // per-message host work on this rank until the sender's fin. The
    // whole conversion is staged and uploaded now, the ring is allocated
    // now, and the host charge for posting every triggered GET and unpack
    // launch of the chain lands here - the chain driver (sender side,
    // drive_stream_chain) then resolves the per-fragment recurrence
    // purely through stream/event dependencies.
    st->mode = TransferMode::kStreamTriggered;
    eng.stage_all(*st->op);
    st->remote = static_cast<std::byte*>(open_handle(p, rts.handle));
    if (cfg.recv_local_staging && rts.src_device != p.gpu().device) {
      st->local_staging = static_cast<std::byte*>(
          sg::Malloc(p.gpu(), static_cast<std::size_t>(st->frag_bytes) *
                                  static_cast<std::size_t>(st->depth)));
      st->slot_free.assign(static_cast<std::size_t>(st->depth), 0);
    }
    const std::int64_t nfrags =
        (rts.total_bytes + st->frag_bytes - 1) / st->frag_bytes;
    const bool local_staged = st->local_staging != nullptr;
    CtsHeader cts;
    cts.send_id = rts.send_id;
    cts.recv_id = req.id;
    cts.mode = TransferMode::kStreamTriggered;
    cts.frag_bytes = st->frag_bytes;
    cts.depth = st->depth;
    req.plugin = std::move(st);
    p.am_send(rts.env.src, mpi::Pml::cts_handler(), make_payload(cts));
    req.cts_sent = p.clock().now();
    // Posting charge for the chain: one triggered launch (and one GET
    // post, when staging locally) per fragment. Charged after the CTS is
    // on the wire - the posting overlaps the CTS flight and the sender's
    // own staging, exactly the overlap the offloaded path exists for -
    // but still at rendezvous time: the host never wakes per fragment.
    const vt::Time enq = p.gpu().cost().enqueue_ns;
    const vt::Time t0 = p.clock().now();
    p.clock().advance(static_cast<vt::Time>(nfrags) * enq *
                      (local_staged ? 2 : 1));
    obs::count(cfg.recorder, "pml.stream_triggered.recvs");
    obs::observe(cfg.recorder, "pml.stream_triggered.enqueue_ns",
                 p.clock().now() - t0);
    obs::trace(cfg.recorder, {"chain_enqueue", "gpu", t0, p.clock().now(),
                              p.rank(), nfrags, p.rank(), 0});
    obs::count(cfg.recorder, "gpu.mode.stream_triggered");
    return;  // completion arrives as the sender's fin (recv_fin)
  }

  st->mode = TransferMode::kIpcRdma;
  CtsHeader cts;
  cts.send_id = rts.send_id;
  cts.recv_id = req.id;
  cts.mode = TransferMode::kIpcRdma;
  cts.frag_bytes = st->frag_bytes;
  cts.depth = st->depth;
  if (cfg.rdma_put_mode) {
    // PUT mode: expose MY staging ring; the sender pushes fragments in.
    st->put_mode = true;
    st->local_staging = static_cast<std::byte*>(
        sg::Malloc(p.gpu(), static_cast<std::size_t>(st->frag_bytes) *
                                static_cast<std::size_t>(st->depth)));
    cts.has_handle = 1;
    cts.handle = sg::IpcGetMemHandle(p.gpu(), st->local_staging);
  } else {
    st->remote = static_cast<std::byte*>(open_handle(p, rts.handle));
    if (cfg.recv_local_staging && rts.src_device != p.gpu().device) {
      st->local_staging = static_cast<std::byte*>(
          sg::Malloc(p.gpu(), static_cast<std::size_t>(st->frag_bytes) *
                                  static_cast<std::size_t>(st->depth)));
      st->slot_free.assign(static_cast<std::size_t>(st->depth), 0);
    }
  }
  req.plugin = std::move(st);
  p.am_send(rts.env.src, mpi::Pml::cts_handler(), make_payload(cts));
  req.cts_sent = p.clock().now();
  obs::count(cfg.recorder, "gpu.mode.ipc_rdma");
  // The triggered recurrence is formulated receiver-GET-side, so PUT
  // mode runs the host-driven protocol instead - counted, not silent.
  if (stream_triggered)
    obs::count(cfg.recorder, "pml.stream_triggered.fallbacks");
}

void GpuDatatypePlugin::drive_recv_from_contiguous(mpi::Process& p,
                                                   mpi::RecvRequest& req,
                                                   vt::Time arrival) {
  auto* st = static_cast<RecvState*>(req.plugin.get());
  core::GpuDatatypeEngine& eng = engine(p);
  mpi::Btl& btl = p.runtime().btl_between(p.rank(), st->src_rank);
  const mpi::RuntimeConfig& cfg = p.config();
  const sg::PtrAttributes remote_attr = p.runtime().machine().query(st->remote);
  const bool same_device = remote_attr.space == sg::MemorySpace::kDevice &&
                           remote_attr.device == p.gpu().device;
  if (!req.dt->is_contiguous(req.count) && st->op == nullptr) {
    st->op = eng.start(Dir::kUnpack, req.dt, req.count, req.buf);
  }
  vt::Time last = arrival;

  if (req.dt->is_contiguous(req.count)) {
    // Contiguous on both ends: one big one-sided get into place. The
    // single GET is the whole flow, so it must carry the frag-flow id -
    // without this span the latency engine has no time window for the
    // contiguous-send class and would count the flow dropped.
    auto* dst = static_cast<std::byte*>(req.buf) + req.dt->true_lb();
    const vt::Time t_start = std::max(arrival, p.clock().now());
    if (same_device) {
      last = sg::TimedCopy(p.gpu(), dst, st->remote,
                           static_cast<std::size_t>(req.total_bytes),
                           t_start, "recv_contig_get");
    } else {
      last = btl.rdma_get(p, st->src_rank, dst, st->remote,
                          static_cast<std::size_t>(req.total_bytes), t_start);
    }
    obs::trace(cfg.recorder,
               {"rdma_frag", "gpu", t_start, last, p.rank(), req.total_bytes,
                p.rank(), mpi::frag_flow(st->src_rank, st->send_id, 0)});
  } else if (same_device || !cfg.recv_local_staging) {
    // Unpack straight out of the exposed source (fast when same device,
    // the slower remote-read option otherwise).
    last = eng.drain(*st->op, st->remote, arrival, st->frag_bytes,
                     {st->src_rank, st->send_id}, req.total_bytes)
               .ready;
  } else {
    // Pipelined: get fragments into a local ring, unpack behind the gets.
    st->local_staging = static_cast<std::byte*>(
        sg::Malloc(p.gpu(), static_cast<std::size_t>(st->frag_bytes) *
                                static_cast<std::size_t>(st->depth)));
    st->slot_free.assign(static_cast<std::size_t>(st->depth), 0);
    std::int64_t idx = 0;
    while (st->op->bytes_done() < req.total_bytes) {
      const std::int64_t slot = idx % st->depth;
      std::byte* local = st->local_staging + slot * st->frag_bytes;
      const std::int64_t n = std::min<std::int64_t>(
          st->frag_bytes, req.total_bytes - st->op->bytes_done());
      const std::uint64_t flow =
          mpi::frag_flow(st->src_rank, st->send_id, idx);
      st->op->set_flow(flow);
      const vt::Time t_start =
          std::max({arrival, p.clock().now(),
                    st->slot_free[static_cast<std::size_t>(slot)]});
      const vt::Time t_get =
          btl.rdma_get(p, st->src_rank, local,
                       st->remote + st->op->bytes_done(),
                       static_cast<std::size_t>(n), t_start);
      obs::trace(cfg.recorder, {"rdma_frag", "gpu", t_start, t_get,
                                p.rank(), n, p.rank(), flow});
      const auto res = eng.process_some(*st->op, local, n, t_get);
      st->slot_free[static_cast<std::size_t>(slot)] = res.ready;
      last = res.ready;
      ++idx;
      if (res.bytes == 0) break;
    }
    eng.finish(*st->op);
    sg::Free(p.gpu(), st->local_staging);
    st->local_staging = nullptr;
  }

  p.clock().wait_until(last);
  FinHeader fin;
  fin.req_id = st->send_id;
  fin.to_sender = 1;
  p.am_send(st->src_rank, mpi::Pml::fin_handler(), make_payload(fin), last);
  p.pml().complete_recv(req);
}

void GpuDatatypePlugin::on_frag_ready(mpi::Process& p, mpi::AmMessage& m) {
  const FragReadyHeader h = read_header<FragReadyHeader>(m);
  mpi::RecvRequest* req = p.pml().find_recv(h.recv_id);
  if (req == nullptr)
    throw std::runtime_error("gpu plugin: frag-ready for unknown recv");
  auto* st = static_cast<RecvState*>(req->plugin.get());
  core::GpuDatatypeEngine& eng = engine(p);
  mpi::Btl& btl = p.runtime().btl_between(p.rank(), st->src_rank);
  const std::int64_t slot = h.frag_idx % st->depth;
  // Same pure function of (src rank, send id, frag idx) the sender used,
  // so this fragment's unpack spans join its cross-rank flow chain.
  const std::uint64_t flow =
      mpi::frag_flow(st->src_rank, h.send_id, h.frag_idx);
  st->op->set_flow(flow);

  vt::Time ack_after;
  if (st->put_mode) {
    // The fragment was pushed into my local ring; just unpack it. The
    // ack releases the RECEIVER-side slot for the sender's next put.
    const auto res = eng.process_some(
        *st->op, st->local_staging + slot * st->frag_bytes, h.bytes,
        p.clock().now());
    if (res.bytes != h.bytes)
      throw std::runtime_error("gpu plugin: fragment size mismatch");
    st->last_ready = res.ready;
    ack_after = res.ready;
  } else if (st->local_staging != nullptr) {
    const std::byte* remote_slot = st->remote + slot * st->frag_bytes;
    // GET into the local ring, then unpack locally; the sender slot is
    // free as soon as the get completed.
    std::byte* local = st->local_staging + slot * st->frag_bytes;
    const vt::Time t_get = btl.rdma_get(
        p, st->src_rank, local, remote_slot,
        static_cast<std::size_t>(h.bytes),
        std::max(p.clock().now(),
                 st->slot_free[static_cast<std::size_t>(slot)]));
    const auto res = eng.process_some(*st->op, local, h.bytes, t_get);
    if (res.bytes != h.bytes)
      throw std::runtime_error("gpu plugin: fragment size mismatch");
    st->slot_free[static_cast<std::size_t>(slot)] = res.ready;
    st->last_ready = res.ready;
    ack_after = t_get;
  } else {
    // Unpack straight from the sender's staging (same device, or the
    // remote-read option); the slot is busy until the kernel finished.
    const std::byte* remote_slot = st->remote + slot * st->frag_bytes;
    const auto res = eng.process_some(
        *st->op, const_cast<std::byte*>(remote_slot), h.bytes,
        p.clock().now());
    if (res.bytes != h.bytes)
      throw std::runtime_error("gpu plugin: fragment size mismatch");
    st->last_ready = res.ready;
    ack_after = res.ready;
  }
  st->bytes_done += h.bytes;
  // The pipelined-RDMA fragments bypass Pml::on_frag, so the per-frag
  // rendezvous latencies are recorded here. The rdma_frag span covers
  // the fragment from its announce to its unpack.
  p.pml().record_frag_arrival(*req, h.bytes, m.arrival);
  obs::Recorder* rec = p.config().recorder;
  obs::observe(rec, "gpu.frag.unpack_ns", st->last_ready - m.arrival);
  obs::trace(rec, {"rdma_frag", "gpu", m.arrival, st->last_ready, p.rank(),
                   h.bytes, p.rank(), flow});

  FragFreeHeader ack;
  ack.send_id = st->send_id;
  ack.frag_idx = h.frag_idx;
  p.am_send(st->src_rank, h_frag_free_, make_payload(ack), ack_after);

  if (h.last) {
    if (st->bytes_done != req->total_bytes)
      throw std::runtime_error("gpu plugin: RDMA stream size mismatch");
    eng.finish(*st->op);
    if (st->local_staging != nullptr) {
      sg::Free(p.gpu(), st->local_staging);
      st->local_staging = nullptr;
    }
    p.clock().wait_until(st->last_ready);
    p.pml().complete_recv(*req);
  }
}

void GpuDatatypePlugin::on_frag_free(mpi::Process& p, mpi::AmMessage& m) {
  const FragFreeHeader h = read_header<FragFreeHeader>(m);
  mpi::SendRequest* req = p.pml().find_send(h.send_id);
  if (req == nullptr)
    throw std::runtime_error("gpu plugin: frag-free for unknown send");
  auto* st = static_cast<SendState*>(req->plugin.get());
  ++st->acks;
  if (!st->all_packed) pump_rdma_send(p, *req);
  maybe_complete_rdma_send(p, *req);
}

void GpuDatatypePlugin::recv_on_frag(mpi::Process& p, mpi::RecvRequest& req,
                                     const FragHeader& hdr,
                                     std::span<const std::byte> data,
                                     vt::Time arrival) {
  auto* st = static_cast<RecvState*>(req.plugin.get());
  if (st == nullptr || st->mode != TransferMode::kHostFrags)
    throw std::runtime_error("gpu plugin: unexpected host fragment");
  core::GpuDatatypeEngine& eng = engine(p);
  if (hdr.offset != st->bytes_done)
    throw std::runtime_error("gpu plugin: out-of-order fragment");
  // Pml::on_frag computed this fragment's flow id before dispatching here
  // - but only a rendezvous carries the sender's request id. A fragment
  // stream without an RTS-carried send_id (peer_send_id 0) would
  // fabricate a flow that collides across that peer's sends and draw
  // wrong/dangling Perfetto arrows; stamp those spans flow-less instead.
  const std::uint64_t frag_flow_id =
      req.peer_send_id != 0 ? req.last_flow : 0;
  st->op->set_flow(frag_flow_id);

  if (hdr.bytes > 0) {
    ScopedStagingRegistration staging(p.runtime().machine(), data.data(),
                                      static_cast<std::size_t>(hdr.bytes));
    if (st->gpu_bounce != nullptr) {
      // Explicit copy-in: H2D staging, then unpack from device memory.
      if (hdr.bytes > st->gpu_bounce_bytes)
        throw std::runtime_error("gpu plugin: fragment exceeds bounce");
      const vt::Time t_h2d = sg::MemcpyAsync(
          p.gpu(), st->gpu_bounce, data.data(),
          static_cast<std::size_t>(hdr.bytes), eng.pack_stream());
      const auto res =
          eng.process_some(*st->op, st->gpu_bounce, hdr.bytes, t_h2d);
      if (res.bytes != hdr.bytes)
        throw std::runtime_error("gpu plugin: fragment size mismatch");
      st->last_ready = res.ready;
    } else {
      // Zero-copy: the unpack kernel reads the arrived host bytes over
      // PCI-E directly (UMA mapping).
      const auto res = eng.process_some(
          *st->op, const_cast<std::byte*>(data.data()), hdr.bytes, arrival);
      if (res.bytes != hdr.bytes)
        throw std::runtime_error("gpu plugin: fragment size mismatch");
      st->last_ready = res.ready;
    }
    st->bytes_done += hdr.bytes;
    // Arrival gaps were recorded by Pml::on_frag before dispatching here;
    // add the device-side unpack latency of this fragment.
    obs::observe(p.config().recorder, "gpu.frag.unpack_ns",
                 st->last_ready - arrival);
    obs::trace(p.config().recorder,
               {"host_frag_unpack", "gpu", arrival, st->last_ready, p.rank(),
                hdr.bytes, p.rank(), frag_flow_id});
  }

  if (hdr.last) {
    if (st->bytes_done != req.total_bytes)
      throw std::runtime_error("gpu plugin: fragment stream size mismatch");
    eng.finish(*st->op);
    if (st->gpu_bounce != nullptr) {
      sg::Free(p.gpu(), st->gpu_bounce);
      st->gpu_bounce = nullptr;
    }
    p.clock().wait_until(st->last_ready);
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
  core::GpuDatatypeEngine& eng = engine(p);
  eng.finish(*st->op);
  if (st->local_staging != nullptr) {
    sg::Free(p.gpu(), st->local_staging);
    st->local_staging = nullptr;
  }
  obs::trace(p.config().recorder,
             {"stream_chain", "gpu", req.cts_sent, st->last_ready, p.rank(),
              st->bytes_done, p.rank(), 0});
  p.clock().wait_until(std::max(arrival, st->last_ready));
}

}  // namespace gpuddt::proto

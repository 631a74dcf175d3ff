#include "baselines/mvapich_plugin.h"

#include <cstring>
#include <stdexcept>

namespace gpuddt::base {

using mpi::make_payload;

struct MvapichLikePlugin::SendState : mpi::PluginState {
  std::byte* host = nullptr;
};

struct MvapichLikePlugin::RecvState : mpi::PluginState {
  std::byte* host = nullptr;
  std::int64_t bytes_done = 0;
};

std::byte* MvapichLikePlugin::stage_out(mpi::Process& p,
                                        const mpi::DatatypePtr& dt,
                                        std::int64_t count, const void* buf,
                                        std::int64_t total) {
  auto* host = static_cast<std::byte*>(
      sg::HostAlloc(p.gpu(), static_cast<std::size_t>(total), false));
  const auto segs = vectorize(dt, count);
  const auto* base = static_cast<const std::byte*>(buf);
  for (const auto& s : segs) {
    // One synchronous cudaMemcpy2D per vector segment, D2H.
    sg::Memcpy2D(p.gpu(), host + s.pk_disp,
                 static_cast<std::size_t>(s.blocklen), base + s.src_disp,
                 static_cast<std::size_t>(s.stride),
                 static_cast<std::size_t>(s.blocklen),
                 static_cast<std::size_t>(s.count));
  }
  return host;
}

void MvapichLikePlugin::stage_in(mpi::Process& p, const mpi::DatatypePtr& dt,
                                 std::int64_t count, void* buf,
                                 const std::byte* host, std::int64_t total) {
  (void)total;
  const auto segs = vectorize(dt, count);
  auto* base = static_cast<std::byte*>(buf);
  for (const auto& s : segs) {
    // One synchronous cudaMemcpy2D per vector segment, H2D.
    sg::Memcpy2D(p.gpu(), base + s.src_disp,
                 static_cast<std::size_t>(s.stride), host + s.pk_disp,
                 static_cast<std::size_t>(s.blocklen),
                 static_cast<std::size_t>(s.blocklen),
                 static_cast<std::size_t>(s.count));
  }
}

void MvapichLikePlugin::send_start(mpi::Process& p, mpi::SendRequest& req) {
  mpi::RtsHeader rts;
  rts.env = req.env;
  rts.send_id = req.id;
  rts.total_bytes = req.total_bytes;
  rts.src_is_device = 1;
  rts.src_contiguous = req.dt->is_contiguous(req.count) ? 1 : 0;
  rts.src_device = req.space.device;
  rts.src_node = p.node();
  rts.sig_hash = req.dt->signature().hash();
  req.plugin = std::make_unique<SendState>();
  p.am_send(req.env.dst, mpi::Pml::rts_handler(), make_payload(rts));
}

void MvapichLikePlugin::send_on_cts(mpi::Process& p, mpi::SendRequest& req,
                                    const mpi::CtsHeader& cts,
                                    vt::Time /*arrival*/) {
  if (cts.mode != mpi::TransferMode::kHostFrags)
    throw std::runtime_error("mvapich baseline: only kHostFrags supported");
  // Stage everything to host FIRST (no overlap), then ship fragments.
  std::byte* host = nullptr;
  if (req.total_bytes > 0)
    host = stage_out(p, req.dt, req.count, req.buf, req.total_bytes);

  mpi::Btl& btl = p.runtime().btl_between(p.rank(), req.env.dst);
  std::int64_t frag = cts.frag_bytes > 0
                          ? cts.frag_bytes
                          : static_cast<std::int64_t>(p.config().frag_bytes);
  frag = std::min<std::int64_t>(
      frag,
      static_cast<std::int64_t>(btl.max_am_payload() -
                                sizeof(mpi::FragHeader)));
  std::int64_t offset = 0;
  do {
    const std::int64_t n =
        std::min<std::int64_t>(frag, req.total_bytes - offset);
    mpi::FragHeader h;
    h.recv_id = cts.recv_id;
    h.offset = offset;
    h.bytes = n;
    h.last = (offset + n == req.total_bytes) ? 1 : 0;
    auto payload = make_payload(h, static_cast<std::size_t>(n));
    if (n > 0)
      std::memcpy(payload.data() + sizeof(mpi::FragHeader), host + offset,
                  static_cast<std::size_t>(n));
    p.am_send(req.env.dst, mpi::Pml::frag_handler(), std::move(payload));
    offset += n;
  } while (offset < req.total_bytes);
  if (host != nullptr) sg::HostFree(p.gpu(), host);
  p.pml().complete_send(req);
}

void MvapichLikePlugin::recv_start(mpi::Process& p, mpi::RecvRequest& req,
                                   const mpi::RtsHeader& rts,
                                   vt::Time /*arrival*/) {
  req.total_bytes = rts.total_bytes;
  if (req.space.space != sg::MemorySpace::kDevice) {
    // Host destination: plain host rendezvous.
    req.cursor = mpi::BlockCursor(req.dt, req.count);
  } else {
    auto st = std::make_unique<RecvState>();
    if (req.total_bytes > 0) {
      st->host = static_cast<std::byte*>(sg::HostAlloc(
          p.gpu(), static_cast<std::size_t>(req.total_bytes), false));
    }
    req.plugin = std::move(st);
  }
  mpi::CtsHeader cts;
  cts.send_id = rts.send_id;
  cts.recv_id = req.id;
  cts.mode = mpi::TransferMode::kHostFrags;
  cts.frag_bytes = static_cast<std::int64_t>(p.config().frag_bytes);
  p.am_send(rts.env.src, mpi::Pml::cts_handler(), make_payload(cts));
}

void MvapichLikePlugin::recv_on_frag(mpi::Process& p, mpi::RecvRequest& req,
                                     const mpi::FragHeader& hdr,
                                     std::span<const std::byte> data,
                                     vt::Time /*arrival*/) {
  auto* st = static_cast<RecvState*>(req.plugin.get());
  if (st == nullptr)
    throw std::runtime_error("mvapich baseline: fragment without state");
  if (hdr.offset != st->bytes_done)
    throw std::runtime_error("mvapich baseline: out-of-order fragment");
  if (!data.empty())
    std::memcpy(st->host + hdr.offset, data.data(), data.size());
  st->bytes_done += hdr.bytes;
  if (hdr.last) {
    // Everything is on the host; only now scatter to the device.
    if (st->bytes_done != req.total_bytes)
      throw std::runtime_error("mvapich baseline: stream size mismatch");
    if (st->host != nullptr) {
      stage_in(p, req.dt, req.count, req.buf, st->host, req.total_bytes);
      sg::HostFree(p.gpu(), st->host);
      st->host = nullptr;
    }
    p.pml().complete_recv(req);
  }
}

void MvapichLikePlugin::recv_eager(mpi::Process& p, mpi::RecvRequest& req,
                                   std::span<const std::byte> data,
                                   vt::Time /*arrival*/) {
  if (!data.empty()) {
    auto* host =
        static_cast<std::byte*>(sg::HostAlloc(p.gpu(), data.size(), false));
    std::memcpy(host, data.data(), data.size());
    stage_in(p, req.dt, req.count, req.buf, host,
             static_cast<std::int64_t>(data.size()));
    sg::HostFree(p.gpu(), host);
  }
  req.total_bytes = static_cast<std::int64_t>(data.size());
  p.pml().complete_recv(req);
}

}  // namespace gpuddt::base

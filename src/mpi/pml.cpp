#include "mpi/pml.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "mpi/btl.h"
#include "mpi/coll.h"
#include "obs/recorder.h"

namespace gpuddt::mpi {

namespace {

struct EagerHeader {
  Envelope env;
  std::int64_t bytes = 0;
};

bool matches(const RecvRequest& req, const Envelope& env) {
  return req.context == env.context &&
         (req.src == kAnySource || req.src == env.src) &&
         (req.tag == kAnyTag || req.tag == env.tag);
}

constexpr int kBarrierTagBase = 0x3fff0000;

}  // namespace

int Pml::h_eager_ = -1;
int Pml::h_rts_ = -1;
int Pml::h_cts_ = -1;
int Pml::h_frag_ = -1;
int Pml::h_fin_ = -1;

Pml::Pml(Process& p) : proc_(p), next_id_(1) {}
Pml::~Pml() = default;

void Pml::register_handlers(Runtime& rt) {
  h_eager_ = rt.register_handler(
      [](Process& p, AmMessage& m) { p.pml().on_eager(m); });
  h_rts_ =
      rt.register_handler([](Process& p, AmMessage& m) { p.pml().on_rts(m); });
  h_cts_ =
      rt.register_handler([](Process& p, AmMessage& m) { p.pml().on_cts(m); });
  h_frag_ = rt.register_handler(
      [](Process& p, AmMessage& m) { p.pml().on_frag(m); });
  h_fin_ =
      rt.register_handler([](Process& p, AmMessage& m) { p.pml().on_fin(m); });
}

void Pml::charge_cpu_pack(const PackStats& st) {
  const sg::CostModel& cm = proc_.runtime().machine().cost();
  proc_.clock().advance(
      cm.cpu_copy_ns(st.bytes) +
      static_cast<vt::Time>(cm.cpu_block_walk_ns *
                            static_cast<double>(st.runs)));
}

SendRequest* Pml::find_send(std::uint64_t id) {
  auto it = sends_.find(id);
  return it == sends_.end() ? nullptr : it->second.get();
}

RecvRequest* Pml::find_recv(std::uint64_t id) {
  auto it = recvs_.find(id);
  return it == recvs_.end() ? nullptr : it->second.get();
}

void Pml::complete_send(SendRequest& req) {
  if (req.rts_sent > 0) {
    obs::observe(proc_.config().recorder, "pml.send.rendezvous_total_ns",
                 proc_.clock().now() - req.rts_sent);
  }
  req.user->done = true;
  sends_.erase(req.id);  // req dangles from here on
}

void Pml::complete_recv(RecvRequest& req) {
  // Every protocol (host fragments, eager delivery, all GPU plugin
  // modes) funnels receive completion through here, so this is where a
  // logical send flow closes for the latency engine. Eager messages
  // carry no flow id (peer_send_id 0): they are counted dropped, never
  // silently folded into percentiles.
  obs::Recorder* rec = proc_.config().recorder;
  if (rec != nullptr && rec->flowstats().enabled()) {
    if (req.peer_send_id != 0) {
      rec->flowstats().complete(
          {frag_flow(req.matched_env.src, req.peer_send_id, 0), "send",
           req.dt ? req.dt->shape_digest() : 0, req.total_bytes, -1, -1, 1});
    } else {
      rec->flowstats().drop_unidentified();
    }
  }
  req.user->done = true;
  req.user->status.source = req.matched_env.src;
  req.user->status.tag = req.matched_env.tag;
  req.user->status.bytes = req.total_bytes;
  recvs_.erase(req.id);  // req dangles from here on
}

namespace {

std::string wildcard(std::int32_t v) {
  return v < 0 ? std::string("any") : std::to_string(v);
}

}  // namespace

std::string Pml::pending_summary() const {
  // Deadlock reports are compared byte-exactly in tests, so walk the
  // request maps in id order, never in hash order.
  std::string out;
  const auto append = [&out](const std::string& item) {
    out += out.empty() ? item : ", " + item;
  };

  std::vector<std::uint64_t> ids;
  ids.reserve(recvs_.size());
  // det-lint: allow(unordered_iter) - the ids are sorted on the next line
  for (const auto& [id, req] : recvs_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  for (const auto id : ids) {
    const RecvRequest& r = *recvs_.at(id);
    if (r.matched) {
      append("recv(src=" + std::to_string(r.matched_env.src) +
             ", tag=" + std::to_string(r.matched_env.tag) +
             ", ctx=" + std::to_string(r.matched_env.context) +
             ", in transfer)");
    } else {
      append("recv(src=" + wildcard(r.src) + ", tag=" + wildcard(r.tag) +
             ", ctx=" + std::to_string(r.context) + ")");
    }
  }

  ids.clear();
  ids.reserve(sends_.size());
  // det-lint: allow(unordered_iter) - the ids are sorted on the next line
  for (const auto& [id, req] : sends_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  for (const auto id : ids) {
    const SendRequest& s = *sends_.at(id);
    append("send(dst=" + std::to_string(s.env.dst) +
           ", tag=" + std::to_string(s.env.tag) +
           ", ctx=" + std::to_string(s.env.context) +
           ", bytes=" + std::to_string(s.total_bytes) + ")");
  }

  if (out.empty()) {
    out = "no pending point-to-point ops";
  }
  return out;
}

// --- Send ------------------------------------------------------------------------

Request Pml::isend(const void* buf, std::int64_t count, const DatatypePtr& dt,
                   int dst, int tag, int context) {
  auto req = std::make_unique<SendRequest>();
  req->id = next_id_++;
  req->env = Envelope{context, proc_.rank(), dst, tag};
  req->buf = buf;
  req->dt = dt;
  req->count = count;
  req->total_bytes = dt->size() * count;
  req->space = proc_.runtime().machine().query(buf);
  req->user = std::make_shared<RequestState>();
  Request user = req->user;
  SendRequest& r = *req;
  sends_.emplace(r.id, std::move(req));

  if (r.space.space == sg::MemorySpace::kDevice) {
    GpuTransferPlugin* plugin = proc_.runtime().gpu_plugin();
    if (plugin == nullptr)
      throw std::runtime_error(
          "PML: device buffer send but no GPU transfer plugin installed");
    plugin->send_start(proc_, r);
    return user;
  }

  if (static_cast<std::size_t>(r.total_bytes) <=
      proc_.config().eager_limit) {
    // Eager: pack inline and fire one AM; the send is complete.
    EagerHeader h{r.env, r.total_bytes};
    auto payload = make_payload(h, static_cast<std::size_t>(r.total_bytes));
    const PackStats st = cpu_pack(
        r.dt, r.count, r.buf,
        std::span<std::byte>(payload.data() + sizeof(EagerHeader),
                             static_cast<std::size_t>(r.total_bytes)));
    charge_cpu_pack(st);
    proc_.am_send(r.env.dst, h_eager_, std::move(payload));
    obs::count(proc_.config().recorder, "pml.sends.eager");
    obs::count(proc_.config().recorder, "pml.eager.bytes", r.total_bytes);
    complete_send(r);
    return user;
  }

  start_host_rendezvous_send(r);
  return user;
}

vt::Time Pml::send_packed_eager(const Envelope& env,
                                std::span<const std::byte> packed,
                                vt::Time earliest) {
  EagerHeader h{env, static_cast<std::int64_t>(packed.size())};
  auto payload = make_payload(h, packed.size());
  std::memcpy(payload.data() + sizeof(EagerHeader), packed.data(),
              packed.size());
  return proc_.am_send(env.dst, h_eager_, std::move(payload), earliest);
}

void Pml::start_host_rendezvous_send(SendRequest& req) {
  RtsHeader rts;
  rts.env = req.env;
  rts.send_id = req.id;
  rts.total_bytes = req.total_bytes;
  rts.src_is_device = 0;
  rts.src_contiguous = req.dt->is_contiguous(req.count) ? 1 : 0;
  rts.src_node = proc_.node();
  rts.sig_hash = req.dt->signature().hash();
  req.cursor = BlockCursor(req.dt, req.count);
  proc_.am_send(req.env.dst, h_rts_, make_payload(rts));
  req.rts_sent = proc_.clock().now();
  obs::count(proc_.config().recorder, "pml.sends.rendezvous");
}

void Pml::stream_host_frags(SendRequest& req, const CtsHeader& cts) {
  const std::size_t max_payload =
      proc_.runtime().btl_between(proc_.rank(), req.env.dst).max_am_payload();
  std::size_t frag = cts.frag_bytes > 0
                         ? static_cast<std::size_t>(cts.frag_bytes)
                         : proc_.config().frag_bytes;
  frag = std::min(frag, max_payload - sizeof(FragHeader));
  std::int64_t offset = 0;
  while (offset < req.total_bytes) {
    const std::int64_t n = std::min<std::int64_t>(
        static_cast<std::int64_t>(frag), req.total_bytes - offset);
    FragHeader h;
    h.recv_id = cts.recv_id;
    h.offset = offset;
    h.bytes = n;
    h.last = (offset + n == req.total_bytes) ? 1 : 0;
    auto payload = make_payload(h, static_cast<std::size_t>(n));
    const PackStats st = cpu_pack_some(
        req.cursor, req.buf,
        std::span<std::byte>(payload.data() + sizeof(FragHeader),
                             static_cast<std::size_t>(n)));
    if (st.bytes != n)
      throw std::runtime_error("PML: datatype shorter than advertised");
    charge_cpu_pack(st);
    proc_.am_send(req.env.dst, h_frag_, std::move(payload));
    offset += n;
  }
  complete_send(req);
}

// --- Receive ------------------------------------------------------------------------

Request Pml::irecv(void* buf, std::int64_t count, const DatatypePtr& dt,
                   int src, int tag, int context) {
  auto req = std::make_unique<RecvRequest>();
  req->id = next_id_++;
  req->context = context;
  req->src = src;
  req->tag = tag;
  req->buf = buf;
  req->dt = dt;
  req->count = count;
  req->total_bytes = dt->size() * count;
  req->space = proc_.runtime().machine().query(buf);
  req->user = std::make_shared<RequestState>();
  Request user = req->user;
  RecvRequest& r = *req;
  recvs_.emplace(r.id, std::move(req));

  // Try the unexpected queue first, in arrival order.
  for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
    if (!matches(r, it->env)) continue;
    Unexpected u = std::move(*it);
    unexpected_.erase(it);
    r.matched = true;
    r.matched_env = u.env;
    if (u.is_rts) {
      handle_matched_rts(r, u.rts, u.arrival);
    } else {
      deliver_eager_to_recv(r, u.packed(), u.arrival);
    }
    return user;
  }
  posted_.push_back(&r);
  return user;
}

void Pml::deliver_eager_to_recv(RecvRequest& req,
                                std::span<const std::byte> data,
                                vt::Time arrival) {
  if (static_cast<std::int64_t>(data.size()) > req.total_bytes)
    throw std::runtime_error("PML: eager message longer than recv buffer");
  proc_.clock().wait_until(arrival);
  if (req.space.space == sg::MemorySpace::kDevice) {
    GpuTransferPlugin* plugin = proc_.runtime().gpu_plugin();
    if (plugin == nullptr)
      throw std::runtime_error("PML: device recv without GPU plugin");
    plugin->recv_eager(proc_, req, data, arrival);
    return;  // plugin completes the request
  }
  // The message may legally be shorter than the posted receive.
  BlockCursor cur(req.dt, req.count);
  const PackStats st = cpu_unpack_some(cur, data, req.buf);
  charge_cpu_pack(st);
  req.total_bytes = static_cast<std::int64_t>(data.size());
  complete_recv(req);
}

void Pml::handle_matched_rts(RecvRequest& req, const RtsHeader& rts,
                             vt::Time arrival) {
  if (rts.total_bytes > req.total_bytes)
    throw std::runtime_error("PML: rendezvous message longer than recv");
  req.matched = true;
  req.matched_env = rts.env;
  req.peer_send_id = rts.send_id;  // seeds frag_flow on arriving fragments
  if (rts.src_is_device || req.space.space == sg::MemorySpace::kDevice) {
    GpuTransferPlugin* plugin = proc_.runtime().gpu_plugin();
    if (plugin == nullptr)
      throw std::runtime_error("PML: GPU transfer without GPU plugin");
    plugin->recv_start(proc_, req, rts, arrival);
    return;
  }
  // Plain host rendezvous: stream fragments to me.
  req.cursor = BlockCursor(req.dt, req.count);
  req.total_bytes = rts.total_bytes;
  CtsHeader cts;
  cts.send_id = rts.send_id;
  cts.recv_id = req.id;
  cts.mode = TransferMode::kHostFrags;
  cts.frag_bytes = static_cast<std::int64_t>(proc_.config().frag_bytes);
  proc_.am_send(rts.env.src, h_cts_, make_payload(cts));
  req.cts_sent = proc_.clock().now();
}

bool Pml::try_match_posted(const Envelope& env, RecvRequest** out) {
  for (auto it = posted_.begin(); it != posted_.end(); ++it) {
    if (matches(**it, env)) {
      *out = *it;
      posted_.erase(it);
      return true;
    }
  }
  return false;
}

// --- AM handlers ----------------------------------------------------------------------

void Pml::on_eager(AmMessage& m) {
  const EagerHeader h = read_header<EagerHeader>(m);
  RecvRequest* req = nullptr;
  if (try_match_posted(h.env, &req)) {
    req->matched = true;
    req->matched_env = h.env;
    // Unpacked straight from the AM payload, past its header.
    deliver_eager_to_recv(
        *req, std::span<const std::byte>(m.payload).subspan(sizeof(h)),
        m.arrival);
    return;
  }
  Unexpected u;
  u.env = h.env;
  u.payload = std::move(m.payload);
  u.data_at = sizeof(h);
  u.arrival = m.arrival;
  unexpected_.push_back(std::move(u));
}

void Pml::on_rts(AmMessage& m) {
  const RtsHeader rts = read_header<RtsHeader>(m);
  RecvRequest* req = nullptr;
  if (try_match_posted(rts.env, &req)) {
    req->matched = true;
    req->matched_env = rts.env;
    handle_matched_rts(*req, rts, m.arrival);
    return;
  }
  Unexpected u;
  u.env = rts.env;
  u.is_rts = true;
  u.rts = rts;
  u.arrival = m.arrival;
  unexpected_.push_back(std::move(u));
}

void Pml::on_cts(AmMessage& m) {
  const CtsHeader cts = read_header<CtsHeader>(m);
  SendRequest* req = find_send(cts.send_id);
  if (req == nullptr)
    throw std::runtime_error("PML: CTS for unknown send request");
  // RTS -> CTS handshake latency, recorded for every rendezvous flavour
  // (host- and device-resident sources) before protocol dispatch.
  if (req->rts_sent > 0) {
    obs::observe(proc_.config().recorder, "pml.rts_to_cts_ns",
                 m.arrival - req->rts_sent);
  }
  if (req->space.space == sg::MemorySpace::kDevice) {
    proc_.runtime().gpu_plugin()->send_on_cts(proc_, *req, cts, m.arrival);
    return;
  }
  if (cts.mode != TransferMode::kHostFrags)
    throw std::runtime_error("PML: RDMA mode requested from a host sender");
  stream_host_frags(*req, cts);
}

void Pml::on_frag(AmMessage& m) {
  const FragHeader h = read_header<FragHeader>(m);
  RecvRequest* req = find_recv(h.recv_id);
  if (req == nullptr)
    throw std::runtime_error("PML: fragment for unknown recv request");
  std::span<const std::byte> data(m.payload.data() + sizeof(FragHeader),
                                  static_cast<std::size_t>(h.bytes));
  // Fragments of one send arrive in order, so the arrival index equals
  // the sender's fragment index and both sides compute the same flow id
  // without any extra wire bytes (frag_flow, pml.h).
  req->last_flow = frag_flow(m.src_rank, req->peer_send_id,
                             req->frags_seen++);
  // Per-fragment rendezvous latencies, for host and device destinations
  // alike.
  record_frag_arrival(*req, h.bytes, m.arrival);
  obs::trace(proc_.config().recorder,
             {"frag", "pml", m.arrival, m.arrival, proc_.rank(), h.bytes,
              proc_.rank(), req->last_flow, obs::Stage::kWire});
  if (req->space.space == sg::MemorySpace::kDevice) {
    proc_.runtime().gpu_plugin()->recv_on_frag(proc_, *req, h, data,
                                               m.arrival);
    return;
  }
  if (h.offset != req->cursor.bytes_consumed())
    throw std::runtime_error("PML: out-of-order fragment");
  const PackStats st = cpu_unpack_some(req->cursor, data, req->buf);
  charge_cpu_pack(st);
  if (h.last) {
    // total_bytes is the RTS size: a stream ending short of it is an error.
    if (req->cursor.bytes_consumed() != req->total_bytes)
      throw std::runtime_error("PML: fragment stream size mismatch");
    if (req->cts_sent > 0)
      obs::observe(proc_.config().recorder, "pml.cts_to_last_frag_ns",
                   m.arrival - req->cts_sent);
    complete_recv(*req);
  }
}

void Pml::record_frag_arrival(RecvRequest& req, std::int64_t bytes,
                              vt::Time arrival) {
  obs::Recorder* rec = proc_.config().recorder;
  obs::count(rec, "pml.frags");
  obs::count(rec, "pml.frag.bytes", bytes);
  if (req.first_frag_arrival == 0) {
    req.first_frag_arrival = arrival;
    if (req.cts_sent > 0)
      obs::observe(rec, "pml.cts_to_first_frag_ns", arrival - req.cts_sent);
  } else if (arrival >= req.last_frag_arrival) {
    obs::observe(rec, "pml.frag_gap_ns", arrival - req.last_frag_arrival);
  }
  req.last_frag_arrival = arrival;
}

void Pml::on_fin(AmMessage& m) {
  // The PML-level fin completes whichever side was waiting passively
  // (used by the RDMA shortcut modes of Section 4.1).
  const FinHeader f = read_header<FinHeader>(m);
  if (f.to_sender) {
    SendRequest* req = find_send(f.req_id);
    if (req == nullptr) throw std::runtime_error("PML: fin for unknown send");
    if (req->rts_sent > 0)
      obs::observe(proc_.config().recorder, "pml.rts_to_fin_ns",
                   m.arrival - req->rts_sent);
    complete_send(*req);
  } else {
    RecvRequest* req = find_recv(f.req_id);
    if (req == nullptr) throw std::runtime_error("PML: fin for unknown recv");
    if (req->cts_sent > 0)
      obs::observe(proc_.config().recorder, "pml.cts_to_fin_ns",
                   m.arrival - req->cts_sent);
    // Plugin-owned recvs (stream-triggered chains) finalize their engine
    // op and free staging here, on the receiving rank itself: this fin is
    // the first host wakeup the transfer caused on this rank.
    if (req->plugin && proc_.runtime().gpu_plugin() != nullptr)
      proc_.runtime().gpu_plugin()->recv_fin(proc_, *req, m.arrival);
    complete_recv(*req);
  }
}

// --- Wait -------------------------------------------------------------------------------

namespace {
/// Sub-communicator receives carry a group map: translate the completed
/// status's world-rank source into the communicator's numbering once.
void finalize_status(const Request& r) {
  if (r->done && r->group && r->status.source >= 0) {
    const auto& g = *r->group;
    for (std::size_t i = 0; i < g.size(); ++i) {
      if (g[i] == r->status.source) {
        r->status.source = static_cast<int>(i);
        break;
      }
    }
    r->group.reset();
  }
}
}  // namespace

void Pml::wait(const Request& r) {
  while (!r->done) proc_.progress_blocking();
  finalize_status(r);
}

void Pml::waitall(std::span<Request> rs) {
  for (const auto& r : rs) wait(r);
}

bool Pml::iprobe(int src, int tag, int context, Status* st) {
  proc_.progress();
  for (const Unexpected& u : unexpected_) {
    if (u.env.context != context) continue;
    if (src != kAnySource && u.env.src != src) continue;
    if (tag != kAnyTag && u.env.tag != tag) continue;
    if (st != nullptr) {
      st->source = u.env.src;
      st->tag = u.env.tag;
      st->bytes = u.is_rts ? u.rts.total_bytes
                           : static_cast<std::int64_t>(u.packed().size());
    }
    return true;
  }
  return false;
}

std::size_t Pml::waitany(std::span<const Request> rs) {
  if (rs.empty()) throw std::invalid_argument("waitany: empty request set");
  for (;;) {
    for (std::size_t i = 0; i < rs.size(); ++i) {
      if (rs[i]->done) {
        finalize_status(rs[i]);
        return i;
      }
    }
    proc_.progress_blocking();
  }
}

bool Pml::test(const Request& r) {
  if (!r->done) proc_.progress();
  if (r->done) finalize_status(r);
  return r->done;
}

// --- Comm --------------------------------------------------------------------------------

Comm Comm::split(int color, int key) const {
  struct Item {
    std::int32_t color;
    std::int32_t key;
    std::int32_t world;
  };
  const int n = size();
  std::vector<Item> all(static_cast<std::size_t>(n));
  Item mine{color, key, static_cast<std::int32_t>(p_->rank())};
  Collectives coll(*this);
  coll.allgather(&mine, all.data(), static_cast<std::int64_t>(sizeof(Item)),
                 kByte());
  // Distinct colors, sorted, give each split a deterministic context.
  std::vector<std::int32_t> colors;
  for (const auto& it : all) colors.push_back(it.color);
  std::sort(colors.begin(), colors.end());
  colors.erase(std::unique(colors.begin(), colors.end()), colors.end());
  const auto cit = std::find(colors.begin(), colors.end(), color);
  const int color_index = static_cast<int>(cit - colors.begin());
  const int new_context =
      ((context_ * 131 + color_index + 1) & 0x0fffffff) + 1;

  // My color's members, ordered by (key, old world rank).
  std::vector<Item> members;
  for (const auto& it : all)
    if (it.color == color) members.push_back(it);
  std::sort(members.begin(), members.end(), [](const Item& a, const Item& b) {
    return a.key != b.key ? a.key < b.key : a.world < b.world;
  });
  auto group = std::make_shared<std::vector<int>>();
  int my_rank = -1;
  for (const auto& it : members) {
    if (it.world == p_->rank()) my_rank = static_cast<int>(group->size());
    group->push_back(it.world);
  }
  return Comm(*p_, new_context, std::move(group), my_rank);
}

void Comm::barrier() const {
  const int size = this->size();
  const int rank = this->rank();
  char token = 0;
  int step = 0;
  for (int dist = 1; dist < size; dist <<= 1, ++step) {
    const int to = (rank + dist) % size;
    const int from = (rank - dist % size + size) % size;
    Request rr = irecv(&token, 0, kByte(), from, kBarrierTagBase + step);
    Request sr = isend(&token, 0, kByte(), to, kBarrierTagBase + step);
    p_->pml().wait(rr);
    p_->pml().wait(sr);
  }
}

}  // namespace gpuddt::mpi

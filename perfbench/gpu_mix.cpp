// gpu_mix: 4 ranks, 2 per node on 2 devices, with the GPU datatype plugin
// installed. A step posts a nonblocking device-resident datatype ring,
// runs a host-buffer collective on a split communicator while the ring is
// in flight, waits for the ring, and joins a barrier; every few steps an
// RMA fence epoch puts into a triangular device window (README.md).
#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "core/engine.h"
#include "core/layouts.h"
#include "mpi/coll.h"
#include "mpi/cpu_pack.h"
#include "mpi/cursor.h"
#include "mpi/datatype.h"
#include "mpi/pml.h"
#include "mpi/runtime.h"
#include "obs/recorder.h"
#include "perfbench.h"
#include "protocols/gpu_plugin.h"
#include "rma/window.h"
#include "simgpu/runtime.h"

namespace gpuddt::perfbench {
namespace {

constexpr int kWorld = 4;
constexpr std::int64_t kSizes[] = {256, 512, 1024};
constexpr int kNumSizes = 3;
/// Ring shapes: V sub-matrix, T triangle, contiguous peer of V.
constexpr int kKinds = 3;
constexpr int kShapes = kKinds * kNumSizes;
/// Collectives: bcast of a derived type, allreduce, allgather.
constexpr int kCollKinds = 3;
constexpr int kDeckReps = 10;
/// Divides the pass length, so every pass holds the same epochs.
constexpr int kRmaEvery = 3;
constexpr std::int64_t kRmaOrder = 256;

/// Times the PML's calls into the GPU transfer plugin (layer "protocols")
/// and forwards them unchanged.
class TimedPlugin : public mpi::GpuTransferPlugin {
 public:
  explicit TimedPlugin(std::shared_ptr<proto::GpuDatatypePlugin> inner)
      : inner_(std::move(inner)) {}

  void attach(mpi::Runtime& rt) override { inner_->attach(rt); }
  void send_start(mpi::Process& p, mpi::SendRequest& req) override {
    Span sp(Layer::kProtocols, p.rank(), &p.clock());
    inner_->send_start(p, req);
  }
  void send_on_cts(mpi::Process& p, mpi::SendRequest& req,
                   const mpi::CtsHeader& cts, vt::Time arrival) override {
    Span sp(Layer::kProtocols, p.rank(), &p.clock());
    inner_->send_on_cts(p, req, cts, arrival);
  }
  void recv_start(mpi::Process& p, mpi::RecvRequest& req,
                  const mpi::RtsHeader& rts, vt::Time arrival) override {
    Span sp(Layer::kProtocols, p.rank(), &p.clock());
    inner_->recv_start(p, req, rts, arrival);
  }
  void recv_on_frag(mpi::Process& p, mpi::RecvRequest& req,
                    const mpi::FragHeader& hdr,
                    std::span<const std::byte> data,
                    vt::Time arrival) override {
    Span sp(Layer::kProtocols, p.rank(), &p.clock());
    inner_->recv_on_frag(p, req, hdr, data, arrival);
  }
  void recv_eager(mpi::Process& p, mpi::RecvRequest& req,
                  std::span<const std::byte> data, vt::Time arrival) override {
    Span sp(Layer::kProtocols, p.rank(), &p.clock());
    inner_->recv_eager(p, req, data, arrival);
  }
  void recv_fin(mpi::Process& p, mpi::RecvRequest& req,
                vt::Time arrival) override {
    Span sp(Layer::kProtocols, p.rank(), &p.clock());
    inner_->recv_fin(p, req, arrival);
  }

 private:
  std::shared_ptr<proto::GpuDatatypePlugin> inner_;
};

/// The orders of one episode: each (kind, size class) gets a seeded order
/// (jittered_order), fixed for the episode, so repeated draws of a shape
/// hit the DEV cache.
struct Zoo {
  std::int64_t n[kShapes];
};

mpi::DatatypePtr make_type(int shape, const Zoo& zoo) {
  const std::int64_t n = zoo.n[shape];
  switch (shape / kNumSizes) {
    case 0:
      return core::submatrix_type(n, n / 2, n + 512);
    case 1:
      return core::lower_triangular_type(n, n);
    default:
      return mpi::Datatype::contiguous(n * (n / 2), mpi::kDouble());
  }
}

std::int64_t span_of(const mpi::DatatypePtr& dt) { return dt->true_extent(); }

std::byte key_of(int rank) { return static_cast<std::byte>(0x31 + rank); }

}  // namespace

Episode run_gpu_mix(const EpisodeConfig& cfg) {
  Episode ep;
  std::int64_t excluded = 0;
  const std::int64_t t_setup = host_ns();
  auto rng = make_rng(cfg.seed, 3);

  Zoo zoo{};
  for (int s = 0; s < kShapes; ++s)
    zoo.n[s] = jittered_order(rng, kSizes[s % kNumSizes]);
  const std::vector<int> deck =
      balanced_deck(rng, kShapes * kCollKinds, kDeckReps);
  const std::size_t steps = deck.size();

  // The largest ring and collective footprints, and the shared pattern
  // every rank's data is keyed from.
  std::int64_t max_span = 0;
  for (int s = 0; s < kShapes; ++s) {
    Span sp(Layer::kDatatype, kMainCtx);
    max_span = std::max(max_span, span_of(make_type(s, zoo)));
  }
  const auto span = static_cast<std::size_t>(max_span);
  const std::size_t max_coll = 1152 * 1152 / 8;  // doubles, > any class
  const auto pattern = make_buffer(span);
  {
    Excluded x(&excluded);
    fill_pattern(pattern.get(), span, cfg.seed);
  }
  // Expected packed stream of each shape over the unkeyed pattern, filled
  // by whichever rank checks that shape first.
  std::vector<std::vector<std::byte>> refs(kShapes);
  const auto scratch = make_buffer(span);

  obs::Recorder rec;
  mpi::RuntimeConfig rc;
  rc.world_size = kWorld;
  rc.ranks_per_node = 2;
  rc.machine.num_devices = 2;
  rc.machine.device_memory_bytes = std::size_t{256} << 20;
  // Size classes map onto the three device protocols: the 256 class
  // travels GPU-eager, 512 as one fragment, 1024 as a pipelined chain.
  rc.gpu_eager_limit = 320 * 1024;
  rc.gpu_frag_bytes = 1280 * 1024;
  rc.recorder = cfg.attach_recorder ? &rec : nullptr;
  mpi::Runtime rt(rc);
  auto plugin = std::make_shared<proto::GpuDatatypePlugin>();
  if (cfg.traced) {
    rt.set_gpu_plugin(std::make_shared<TimedPlugin>(plugin));
  } else {
    rt.set_gpu_plugin(plugin);
  }

  std::vector<std::int64_t> step_excl(steps, 0);
  std::vector<std::int64_t> step_end(steps, 0);
  std::int64_t setup_end = 0;
  std::vector<vt::Time> vt_start(kWorld, 0);
  std::vector<vt::Time> vt_end(kWorld, 0);

  auto check_packed = [&](const mpi::DatatypePtr& dt, std::int64_t count,
                          const std::byte* buf,
                          const std::vector<std::byte>& ref, std::byte key,
                          int ctx) {
    const std::size_t n = ref.size();
    {
      Span sp(Layer::kCpuPack, ctx);
      sp.add_bytes(static_cast<std::int64_t>(n));
      mpi::cpu_pack(dt, count, buf, std::span<std::byte>(scratch.get(), n));
    }
    Span sp(Layer::kCheck, ctx);
    std::byte diff{0};
    for (std::size_t i = 0; i < n; ++i) diff |= scratch[i] ^ ref[i] ^ key;
    ++ep.attempted;
    if (diff != std::byte{0}) ++ep.failed;
  };
  auto ref_of = [&](int shape, const mpi::DatatypePtr& dt,
                    int ctx) -> const std::vector<std::byte>& {
    auto& ref = refs[static_cast<std::size_t>(shape)];
    if (ref.empty()) {
      ref.resize(static_cast<std::size_t>(dt->size()));
      Span sp(Layer::kCpuPack, ctx);
      sp.add_bytes(dt->size());
      mpi::cpu_pack(dt, 1, pattern.get() - dt->true_lb(), ref);
    }
    return ref;
  };

  rt.run([&](mpi::Process& p) {
    const int r = p.rank();
    mark(r);
    const vt::VClock* clock = &p.clock();
    auto simgpu_malloc = [&](std::int64_t bytes) {
      Span sp(Layer::kSimgpu, r, clock);
      sp.add_bytes(bytes);
      return static_cast<std::byte*>(
          sg::Malloc(p.gpu(), static_cast<std::size_t>(bytes)));
    };
    auto simgpu_free = [&](std::byte* ptr) {
      Span sp(Layer::kSimgpu, r, clock);
      sg::Free(p.gpu(), ptr);
    };

    mpi::Comm world(p);
    const mpi::Comm ring = [&] {
      Span sp(Layer::kColl, r, clock);
      return world.dup();
    }();
    const mpi::Comm half = [&] {
      Span sp(Layer::kColl, r, clock);
      return world.split(r % 2, r);
    }();
    std::byte* dev_send = simgpu_malloc(max_span);
    std::byte* dev_recv = simgpu_malloc(max_span);
    {
      const auto keyed = make_buffer(span);
      {
        Excluded x(&excluded);
        for (std::size_t i = 0; i < span; ++i)
          keyed[i] = pattern[i] ^ key_of(r);
      }
      Span sp(Layer::kSimgpu, r, clock);
      sp.add_bytes(max_span);
      sg::Memcpy(p.gpu(), dev_send, keyed.get(), span);
    }
    const auto coll_buf = make_buffer(span);
    const auto coll_in = make_buffer<double>(max_coll);
    const auto coll_out = make_buffer<double>(2 * max_coll);
    {
      Excluded x(&excluded);
      std::memset(coll_buf.get(), 0, span);
      std::memset(coll_out.get(), 0, 2 * max_coll * sizeof(double));
    }
    // The last rank into a barrier closes the phase (see host_ring.cpp).
    setup_end = host_ns();
    {
      Span sp(Layer::kColl, r, clock);
      world.barrier();
    }
    vt_start[static_cast<std::size_t>(r)] = p.clock().now();

    const int next = (r + 1) % kWorld;
    const int prev = (r + kWorld - 1) % kWorld;
    for (std::size_t k = 0; k < steps; ++k) {
      const int shape = deck[k] % kShapes;
      // Each ring shape has a fixed collective partner, so every pass of
      // the deck carries the same work.
      const int coll_shape = (shape + 4) % kShapes;
      const int coll_kind = deck[k] / kShapes;
      mpi::DatatypePtr dt;
      mpi::DatatypePtr coll_dt;
      {
        // Every rank builds this step's types anew; equal shapes still
        // share DEV cache entries through the shape digest.
        Span sp(Layer::kDatatype, r);
        dt = make_type(shape, zoo);
        coll_dt = make_type(coll_shape, zoo);
      }
      const int tag = static_cast<int>(k);
      std::byte* send_base = dev_send - dt->true_lb();
      std::byte* recv_base = dev_recv - dt->true_lb();
      const vt::Time posted = p.clock().now();
      mpi::Request rr, sr;
      {
        Span sp(Layer::kPml, r, clock);
        sp.add_bytes(dt->size());
        rr = ring.irecv(recv_base, 1, dt, prev, tag);
      }
      {
        Span sp(Layer::kPml, r, clock);
        sp.add_bytes(dt->size());
        sr = ring.isend(send_base, 1, dt, next, tag);
      }

      // The collective on the split communicator, while the ring flies.
      mpi::Collectives coll(half);
      const std::int64_t cn = zoo.n[coll_shape];
      const std::int64_t m = cn * cn / 8;
      const int hr = half.rank();
      if (coll_kind == 0) {
        {
          Excluded x(&step_excl[k]);
          const auto n = static_cast<std::size_t>(span_of(coll_dt));
          if (hr == 0) {
            std::memcpy(coll_buf.get(), pattern.get(), n);
          } else {
            std::memset(coll_buf.get(), 0, n);
          }
        }
        {
          Span sp(Layer::kColl, r, clock);
          coll.bcast(coll_buf.get() - coll_dt->true_lb(), 1, coll_dt, 0);
        }
        Excluded x(&step_excl[k]);
        check_packed(coll_dt, 1, coll_buf.get() - coll_dt->true_lb(),
                     ref_of(coll_shape, coll_dt, r), std::byte{0}, r);
      } else {
        {
          Excluded x(&step_excl[k]);
          for (std::int64_t i = 0; i < m; ++i)
            coll_in[static_cast<std::size_t>(i)] =
                static_cast<double>((hr + 1) * (i % 13 + 1));
        }
        {
          Span sp(Layer::kColl, r, clock);
          if (coll_kind == 1) {
            coll.allreduce(coll_in.get(), coll_out.get(), m, mpi::kDouble(),
                           mpi::ReduceOp::kSum);
          } else {
            coll.allgather(coll_in.get(), coll_out.get(), m, mpi::kDouble());
          }
        }
        Excluded x(&step_excl[k]);
        Span sp(Layer::kCheck, r);
        // Exact: sums of small integers are exact in double.
        std::int64_t bad = 0;
        for (std::int64_t i = 0; i < m; ++i) {
          const double unit = static_cast<double>(i % 13 + 1);
          const auto at = [&](std::int64_t j) {
            return coll_out[static_cast<std::size_t>(j)];
          };
          bad += coll_kind == 1 ? at(i) != 3 * unit
                                : (at(i) != unit) + (at(m + i) != 2 * unit);
        }
        ++ep.attempted;
        if (bad != 0) ++ep.failed;
      }

      {
        Span sp(Layer::kPml, r, clock);
        ring.wait(rr);
      }
      ep.xfer_ns.push_back(p.clock().now() - posted);
      {
        Span sp(Layer::kPml, r, clock);
        ring.wait(sr);
      }
      {
        Excluded x(&step_excl[k]);
        check_packed(dt, 1, recv_base, ref_of(shape, dt, r), key_of(prev), r);
        if (cfg.traced && r == 0) {
          for (const auto& t : {dt, coll_dt}) {
            Span sp(Layer::kCursor, r);
            mpi::BlockCursor c(t, 1);
            mpi::Block b;
            while (c.next(&b)) {
            }
            ep.cursor_pieces += c.pieces_produced();
          }
        }
      }

      if (k % kRmaEvery == kRmaEvery - 1) {
        // One fence epoch: even ranks put a dense block into the odd
        // neighbour's lower-triangular device window.
        mpi::DatatypePtr tri;
        {
          Span sp(Layer::kDatatype, r);
          tri = core::lower_triangular_type(kRmaOrder, kRmaOrder);
        }
        const std::int64_t wbytes = kRmaOrder * kRmaOrder * 8;
        std::byte* win_buf = simgpu_malloc(wbytes);
        const auto origin_bytes = static_cast<std::size_t>(tri->size());
        const auto origin = make_buffer(origin_bytes);
        {
          Excluded x(&step_excl[k]);
          for (std::size_t i = 0; i < origin_bytes; ++i)
            origin[i] = pattern[i] ^ key_of(r);
        }
        std::unique_ptr<rma::Window> win;
        {
          Span sp(Layer::kRma, r, clock);
          win = std::make_unique<rma::Window>(world, win_buf, wbytes);
        }
        {
          Span sp(Layer::kRma, r, clock);
          win->fence();
        }
        if (r % 2 == 0) {
          Span sp(Layer::kRma, r, clock);
          win->put(origin.get(), tri->size() / 8, mpi::kDouble(), r + 1, 0, 1,
                   tri);
        }
        {
          Span sp(Layer::kRma, r, clock);
          win->fence();
        }
        if (r % 2 == 1) {
          Excluded x(&step_excl[k]);
          std::vector<std::byte> ref(pattern.get(),
                                     pattern.get() + tri->size());
          check_packed(tri, 1, win_buf, ref, key_of(r - 1), r);
        }
        win.reset();
        simgpu_free(win_buf);
      }
      step_end[k] = host_ns();
      {
        Span sp(Layer::kColl, r, clock);
        world.barrier();
      }
    }
    vt_end[static_cast<std::size_t>(r)] = p.clock().now();
    {
      Span sp(Layer::kDevCache, r);
      const core::DevCache& cache = plugin->engine(p).cache();
      ep.cache_hits += cache.hits();
      ep.cache_misses += cache.misses();
      ep.cache_evictions += cache.evictions();
    }
    simgpu_free(dev_recv);
    simgpu_free(dev_send);
  });
  mark(kMainCtx);

  ep.setup_s = static_cast<double>(setup_end - t_setup - excluded) * 1e-9;
  std::int64_t prev_end = setup_end;
  for (std::size_t k = 0; k < steps; ++k) {
    ep.step_us.push_back(
        static_cast<double>(step_end[k] - prev_end - step_excl[k]) / 1e3);
    prev_end = step_end[k];
  }
  ep.makespan_ns = *std::max_element(vt_end.begin(), vt_end.end()) -
                   *std::min_element(vt_start.begin(), vt_start.end());
  return ep;
}

}  // namespace gpuddt::perfbench

// host_ring: 64 ranks in host memory, 8 per node, on a two-leaf fat-tree.
// A step exchanges one seeded datatype with the distance-1 neighbour
// (shared memory) and the distance-8 neighbour (InfiniBand, across the
// spine for the leaf-edge nodes), then joins a barrier. No GPU traffic:
// the datatype cursor, the CPU pack engine, the PML and the event loop do
// the work (README.md).
#include <algorithm>
#include <cstring>
#include <vector>

#include "mpi/coll.h"
#include "mpi/cpu_pack.h"
#include "mpi/cursor.h"
#include "mpi/datatype.h"
#include "mpi/pml.h"
#include "mpi/runtime.h"
#include "obs/recorder.h"
#include "perfbench.h"

namespace gpuddt::perfbench {
namespace {

constexpr int kRanks = 64;
constexpr int kRanksPerNode = 8;
constexpr int kFar = kRanksPerNode;
/// Dense bytes (eager), strided doubles (eager), 128 KiB of contiguous
/// doubles (host rendezvous, one fragment).
constexpr int kClasses = 3;
constexpr int kDeckReps = 40;

struct StepType {
  mpi::DatatypePtr dt;
  std::int64_t count = 1;
  std::int64_t bytes = 0;
  std::int64_t span = 0;
};

StepType make_step_type(int cls, std::mt19937_64& rng) {
  StepType t;
  if (cls == 0) {
    t.dt = mpi::kByte();
    t.count = 4096 + 8 * draw(rng, -8, 8);
  } else if (cls == 1) {
    t.dt = mpi::Datatype::vector(128 + draw(rng, -2, 2), 6, 12, mpi::kDouble());
  } else {
    t.dt = mpi::kDouble();
    t.count = 16384 + draw(rng, -256, 256);
  }
  t.bytes = t.dt->size() * t.count;
  t.span = t.dt->true_extent() + (t.count - 1) * t.dt->extent();
  return t;
}

/// Rank r's send buffer is the shared seeded pattern XOR this key, so a
/// receiver can check any message against the pattern and its source.
std::byte key_of(int rank) { return static_cast<std::byte>(1 + rank % 255); }

}  // namespace

Episode run_host_ring(const EpisodeConfig& cfg) {
  Episode ep;
  std::int64_t excluded = 0;
  const std::int64_t t_setup = host_ns();
  auto rng = make_rng(cfg.seed, 2);

  const std::vector<int> deck = balanced_deck(rng, kClasses, kDeckReps);
  const std::size_t steps = deck.size();
  std::vector<StepType> types;
  std::int64_t max_span = 0;
  for (const int cls : deck) {
    Span sp(Layer::kDatatype, kMainCtx);
    types.push_back(make_step_type(cls, rng));
    max_span = std::max(max_span, types.back().span);
  }
  std::vector<std::byte> pattern(static_cast<std::size_t>(max_span));
  {
    Excluded x(&excluded);
    fill_pattern(pattern.data(), pattern.size(), cfg.seed);
  }
  // Expected packed stream of each step's type over the unkeyed pattern,
  // computed once by whichever rank checks that step first.
  std::vector<std::vector<std::byte>> refs(steps);
  std::vector<std::byte> scratch(static_cast<std::size_t>(max_span));

  obs::Recorder rec;
  mpi::RuntimeConfig rc;
  rc.world_size = kRanks;
  rc.ranks_per_node = kRanksPerNode;
  rc.machine.num_devices = 1;
  rc.machine.device_memory_bytes = std::size_t{1} << 20;
  rc.machine.topo.fat_tree_leaf_nodes = 4;
  rc.machine.topo.fat_tree_uplinks = 2;
  rc.sim_stack_bytes = 256 * 1024;
  rc.recorder = cfg.attach_recorder ? &rec : nullptr;
  mpi::Runtime rt(rc);

  std::vector<std::int64_t> step_excl(steps, 0);
  std::vector<std::int64_t> step_end(steps, 0);
  std::int64_t setup_end = 0;
  std::vector<vt::Time> vt_start(kRanks, 0);
  std::vector<vt::Time> vt_end(kRanks, 0);

  rt.run([&](mpi::Process& p) {
    const int r = p.rank();
    mark(r);
    mpi::Comm comm(p);
    const auto span = static_cast<std::size_t>(max_span);
    const auto send = make_buffer(span);
    const auto recv = make_buffer(span);
    {
      Excluded x(&excluded);
      for (std::size_t i = 0; i < span; ++i) send[i] = pattern[i] ^ key_of(r);
      std::memset(recv.get(), 0, span);
    }
    // No rank leaves a barrier before every rank has entered it, so the
    // last rank to arrive closes the phase: each rank stamps the time on
    // its way in and the latest stamp stays.
    setup_end = host_ns();
    {
      Span sp(Layer::kColl, r, &p.clock());
      comm.barrier();
    }
    vt_start[static_cast<std::size_t>(r)] = p.clock().now();

    for (std::size_t k = 0; k < steps; ++k) {
      const StepType& t = types[k];
      for (const int d : {1, kFar}) {
        const int right = (r + d) % kRanks;
        const int left = (r + kRanks - d) % kRanks;
        const int tag = static_cast<int>(2 * k) + (d == 1 ? 0 : 1);
        const vt::Time posted = p.clock().now();
        mpi::Request rr, sr;
        {
          Span sp(Layer::kPml, r, &p.clock());
          sp.add_bytes(t.bytes);
          rr = comm.irecv(recv.get(), t.count, t.dt, left, tag);
        }
        {
          Span sp(Layer::kPml, r, &p.clock());
          sp.add_bytes(t.bytes);
          sr = comm.isend(send.get(), t.count, t.dt, right, tag);
        }
        {
          Span sp(Layer::kPml, r, &p.clock());
          comm.wait(rr);
        }
        ep.xfer_ns.push_back(p.clock().now() - posted);
        {
          Span sp(Layer::kPml, r, &p.clock());
          comm.wait(sr);
        }

        // A contiguous message is its own packed stream; any other is
        // packed with the CPU engine and compared with the packed pattern.
        Excluded x(&step_excl[k]);
        const auto n = static_cast<std::size_t>(t.bytes);
        const std::byte* got = recv.get();
        const std::byte* want = pattern.data();
        if (!t.dt->is_contiguous(t.count)) {
          if (refs[k].empty()) {
            refs[k].resize(n);
            Span sp(Layer::kCpuPack, r);
            sp.add_bytes(t.bytes);
            mpi::cpu_pack(t.dt, t.count, pattern.data(), refs[k]);
          }
          Span sp(Layer::kCpuPack, r);
          sp.add_bytes(t.bytes);
          mpi::cpu_pack(t.dt, t.count, recv.get(),
                        std::span<std::byte>(scratch.data(), n));
          got = scratch.data();
          want = refs[k].data();
        }
        Span sp(Layer::kCheck, r);
        const std::byte key = key_of(left);
        std::byte diff{0};
        for (std::size_t i = 0; i < n; ++i) diff |= got[i] ^ want[i] ^ key;
        ++ep.attempted;
        if (diff != std::byte{0}) ++ep.failed;
      }
      if (cfg.traced && r == 0) {
        Excluded x(&step_excl[k]);
        Span sp(Layer::kCursor, r);
        mpi::BlockCursor c(t.dt, t.count);
        mpi::Block b;
        while (c.next(&b)) {
        }
        ep.cursor_pieces += c.pieces_produced();
      }
      step_end[k] = host_ns();
      {
        Span sp(Layer::kColl, r, &p.clock());
        comm.barrier();
      }
    }
    vt_end[static_cast<std::size_t>(r)] = p.clock().now();
  });
  mark(kMainCtx);

  ep.setup_s = static_cast<double>(setup_end - t_setup - excluded) * 1e-9;
  std::int64_t prev = setup_end;
  for (std::size_t k = 0; k < steps; ++k) {
    ep.step_us.push_back(
        static_cast<double>(step_end[k] - prev - step_excl[k]) / 1e3);
    prev = step_end[k];
  }
  ep.makespan_ns = *std::max_element(vt_end.begin(), vt_end.end()) -
                   *std::min_element(vt_start.begin(), vt_start.end());
  return ep;
}

}  // namespace gpuddt::perfbench

// engine_pack: one sg::Machine, one device and one GPU datatype engine
// driven directly through start / process_some / finish - no runtime, PML
// or scheduler. A step packs one seeded draw from a shape zoo and unpacks
// it again; the DEV cache budget is below the zoo's footprint, so steps
// both hit and miss the cache (README.md).
#include <algorithm>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/dev.h"
#include "core/engine.h"
#include "core/layouts.h"
#include "mpi/cpu_pack.h"
#include "mpi/cursor.h"
#include "mpi/datatype.h"
#include "obs/recorder.h"
#include "perfbench.h"
#include "simgpu/machine.h"
#include "simgpu/runtime.h"

namespace gpuddt::perfbench {
namespace {

using Dir = core::GpuDatatypeEngine::Dir;

constexpr std::int64_t kSizes[] = {256, 512, 1024};
constexpr int kNumSizes = 3;
/// V sub-matrix, T triangle, stair triangle, irregular indexed, struct,
/// contiguous.
constexpr int kKinds = 6;
constexpr int kShapes = kKinds * kNumSizes;
/// Each deck entry is (shape, device or zero-copy target, whole-message or
/// fragment budget); an episode deals the deck this many times.
constexpr int kDeckReps = 7;
constexpr std::int64_t kFragBytes = 256 * 1024;
constexpr std::int64_t kUnitBytes = 1024;
/// DEV cache byte budget, below the zoo's descriptor footprint.
constexpr std::int64_t kCacheBytes = 1 << 20;

struct Shape {
  mpi::DatatypePtr dt;
  std::int64_t count = 1;
  std::int64_t bytes = 0;      // packed size
  std::int64_t span = 0;       // buffer bytes from the true lower bound
  std::vector<std::byte> ref;  // cpu_pack of the source: the expected stream
};

mpi::DatatypePtr make_type(int kind, std::int64_t n, std::mt19937_64& rng,
                           std::int64_t* count) {
  *count = 1;
  switch (kind) {
    case 0:
      return core::submatrix_type(n, n / 2, n + 512);
    case 1:
      return core::lower_triangular_type(n, n);
    case 2:
      return core::stair_triangular_type(n, n, 64);
    case 3: {
      // One block per column at a seeded row, of seeded length.
      std::vector<std::int64_t> lens(static_cast<std::size_t>(n));
      std::vector<std::int64_t> displs(static_cast<std::size_t>(n));
      for (std::int64_t j = 0; j < n; ++j) {
        lens[static_cast<std::size_t>(j)] = draw(rng, 1, n / 2);
        displs[static_cast<std::size_t>(j)] = j * n + draw(rng, 0, n / 2);
      }
      return mpi::Datatype::indexed(lens, displs, mpi::kDouble());
    }
    case 4: {
      // A particle: position, id, velocity, with a 4-byte hole.
      const std::int64_t lens[] = {3, 1, 3};
      const std::int64_t displs[] = {0, 24, 32};
      const mpi::DatatypePtr types[] = {mpi::kDouble(), mpi::kInt32(),
                                        mpi::kDouble()};
      *count = n * n / 32;
      return mpi::Datatype::struct_type(lens, displs, types);
    }
    default:
      return mpi::Datatype::contiguous(n * n / 2, mpi::kDouble());
  }
}

/// Drive one pack or unpack through the engine in `budget`-byte calls;
/// returns the virtual completion of its kernels.
vt::Time drive(core::GpuDatatypeEngine& eng, Dir dir, const Shape& s,
               std::byte* user, std::byte* contig, std::int64_t budget,
               vt::Time dep, const vt::VClock& clock) {
  std::unique_ptr<core::GpuDatatypeEngine::Op> op;
  {
    Span sp(Layer::kEngine, kMainCtx, &clock);
    op = eng.start(dir, s.dt, s.count, user);
  }
  vt::Time ready = dep;
  while (!op->done()) {
    Span sp(Layer::kEngine, kMainCtx, &clock);
    const auto r =
        eng.process_some(*op, contig + op->bytes_done(), budget, dep);
    sp.add_bytes(r.bytes);
    if (r.bytes == 0) throw std::runtime_error("engine_pack: no progress");
    ready = std::max(ready, r.ready);
  }
  Span sp(Layer::kEngine, kMainCtx, &clock);
  eng.finish(*op);
  return ready;
}

}  // namespace

Episode run_engine_pack(const EpisodeConfig& cfg) {
  Episode ep;
  std::int64_t excluded = 0;
  const std::int64_t t_setup = host_ns();
  auto rng = make_rng(cfg.seed, 1);

  sg::MachineConfig mc;
  mc.num_devices = 1;
  mc.device_memory_bytes = std::size_t{256} << 20;
  sg::Machine machine(mc);
  sg::HostContext ctx(machine, 0);
  obs::Recorder rec;
  core::EngineConfig ec;
  ec.unit_bytes = kUnitBytes;
  ec.cache_max_bytes = kCacheBytes;
  ec.recorder = cfg.attach_recorder ? &rec : nullptr;
  core::GpuDatatypeEngine eng(ctx, ec);

  std::vector<Shape> zoo(kShapes);
  std::int64_t max_span = 0;
  std::int64_t max_bytes = 0;
  for (int kind = 0; kind < kKinds; ++kind) {
    for (int size = 0; size < kNumSizes; ++size) {
      const std::int64_t n = jittered_order(rng, kSizes[size]);
      Shape& s = zoo[static_cast<std::size_t>(kind * kNumSizes + size)];
      {
        Span sp(Layer::kDatatype, kMainCtx);
        s.dt = make_type(kind, n, rng, &s.count);
      }
      s.bytes = s.dt->size() * s.count;
      s.span = s.dt->true_extent() + (s.count - 1) * s.dt->extent();
      max_span = std::max(max_span, s.span);
      max_bytes = std::max(max_bytes, s.bytes);
    }
  }
  const std::vector<int> deck = balanced_deck(rng, kShapes * 4, kDeckReps);

  auto malloc_dev = [&](std::int64_t bytes) {
    Span sp(Layer::kSimgpu, kMainCtx, &ctx.clock);
    sp.add_bytes(bytes);
    return static_cast<std::byte*>(
        sg::Malloc(ctx, static_cast<std::size_t>(bytes)));
  };
  std::byte* src = malloc_dev(max_span);
  std::byte* dst = malloc_dev(max_span);
  std::byte* dev_packed = malloc_dev(max_bytes);
  std::byte* zc_packed = nullptr;
  {
    Span sp(Layer::kSimgpu, kMainCtx, &ctx.clock);
    sp.add_bytes(max_bytes);
    zc_packed = static_cast<std::byte*>(
        sg::HostAlloc(ctx, static_cast<std::size_t>(max_bytes), true));
  }
  const auto scratch = make_buffer(static_cast<std::size_t>(max_bytes));
  {
    // Input generation: the seeded source and each shape's expected
    // packed stream.
    Excluded x(&excluded);
    fill_pattern(src, static_cast<std::size_t>(max_span), cfg.seed);
    for (Shape& s : zoo) {
      s.ref.resize(static_cast<std::size_t>(s.bytes));
      Span sp(Layer::kCpuPack, kMainCtx);
      sp.add_bytes(s.bytes);
      mpi::cpu_pack(s.dt, s.count, src - s.dt->true_lb(), s.ref);
    }
  }
  ep.setup_s = static_cast<double>(host_ns() - t_setup - excluded) * 1e-9;

  const vt::Time phase0 = ctx.clock.now();
  for (const int k : deck) {
    const Shape& s = zoo[static_cast<std::size_t>(k / 4)];
    std::byte* packed = (k & 1) != 0 ? zc_packed : dev_packed;
    const std::int64_t budget = (k & 2) != 0 ? kFragBytes : s.bytes;
    std::byte* src_base = src - s.dt->true_lb();
    std::byte* dst_base = dst - s.dt->true_lb();
    std::int64_t step_excl = 0;
    const std::int64_t t0 = host_ns();

    vt::Time v0 = ctx.clock.now();
    ctx.clock.wait_until(
        drive(eng, Dir::kPack, s, src_base, packed, budget, 0, ctx.clock));
    ep.xfer_ns.push_back(ctx.clock.now() - v0);
    {
      Excluded x(&step_excl);
      Span sp(Layer::kCheck, kMainCtx);
      ++ep.attempted;
      if (std::memcmp(packed, s.ref.data(), s.ref.size()) != 0) ++ep.failed;
      std::memset(dst, 0xA5, static_cast<std::size_t>(s.span));
    }

    v0 = ctx.clock.now();
    ctx.clock.wait_until(
        drive(eng, Dir::kUnpack, s, dst_base, packed, budget, v0, ctx.clock));
    ep.xfer_ns.push_back(ctx.clock.now() - v0);
    {
      Excluded x(&step_excl);
      const std::span<std::byte> out(scratch.get(),
                                     static_cast<std::size_t>(s.bytes));
      {
        Span sp(Layer::kCpuPack, kMainCtx);
        sp.add_bytes(s.bytes);
        mpi::cpu_pack(s.dt, s.count, dst_base, out);
      }
      Span sp(Layer::kCheck, kMainCtx);
      ++ep.attempted;
      if (std::memcmp(out.data(), s.ref.data(), s.ref.size()) != 0)
        ++ep.failed;
    }
    if (cfg.traced) {
      Excluded x(&step_excl);
      {
        Span sp(Layer::kCursor, kMainCtx);
        mpi::BlockCursor c(s.dt, s.count);
        mpi::Block b;
        while (c.next(&b)) {
        }
        ep.cursor_pieces += c.pieces_produced();
      }
      Span sp(Layer::kDev, kMainCtx);
      ep.dev_units += static_cast<std::int64_t>(
          core::convert_all(s.dt, s.count, kUnitBytes).size());
    }
    ep.step_us.push_back(static_cast<double>(host_ns() - t0 - step_excl) /
                         1e3);
  }
  ep.makespan_ns = ctx.clock.now() - phase0;
  {
    Span sp(Layer::kDevCache, kMainCtx);
    ep.cache_hits = eng.cache().hits();
    ep.cache_misses = eng.cache().misses();
    ep.cache_evictions = eng.cache().evictions();
  }

  eng.cache().clear(ctx);
  sg::HostFree(ctx, zc_packed);
  sg::Free(ctx, dev_packed);
  sg::Free(ctx, dst);
  sg::Free(ctx, src);
  return ep;
}

}  // namespace gpuddt::perfbench

// Datatype zoo: a seeded many-type workload for calibrating the DEV
// cache's byte budget (EngineConfig::cache_max_bytes).
//
// The workload models a library-heavy application: many derived types,
// built fresh each time they are needed (so every op carries a new
// type_id), with the same *shapes* recurring across phases and often
// constructed through different MPI constructors (indexed vs hindexed vs
// struct). That is exactly the scenario the shape-keyed cache
// (mpi/canonical.h) targets: without canonical keying every rebuild
// would miss; with it only capacity evictions can miss.
//
// BM_DDTZoo_Capacity/<KiB> packs kRounds passes over the zoo under a
// descriptor-byte budget of <KiB> (0 = unbounded) and reports the cache
// hit rate, shape-dedup hits and evictions alongside the virtual pack
// time - the hit-rate-vs-capacity curve the calibrated default in
// docs/datatypes.md is read from.
#include <cstring>
#include <random>

#include "bench_common.h"
#include "core/engine.h"
#include "simgpu/runtime.h"

namespace gpuddt::bench {
namespace {

using mpi::Datatype;
using mpi::DatatypePtr;

/// Lower triangle built over byte displacements instead of elements:
/// same shape as core::lower_triangular_type, different constructor.
DatatypePtr tri_hindexed(std::int64_t n, std::int64_t ld) {
  std::vector<std::int64_t> lens(static_cast<std::size_t>(n));
  std::vector<std::int64_t> displs(static_cast<std::size_t>(n));
  for (std::int64_t j = 0; j < n; ++j) {
    lens[static_cast<std::size_t>(j)] = n - j;
    displs[static_cast<std::size_t>(j)] = (j * ld + j) * 8;
  }
  return Datatype::hindexed(lens, displs, mpi::kDouble());
}

/// Upper triangle built as a struct of per-column double runs.
DatatypePtr upper_struct(std::int64_t n, std::int64_t ld) {
  std::vector<std::int64_t> lens(static_cast<std::size_t>(n));
  std::vector<std::int64_t> displs(static_cast<std::size_t>(n));
  std::vector<DatatypePtr> types(static_cast<std::size_t>(n),
                                 mpi::kDouble());
  for (std::int64_t j = 0; j < n; ++j) {
    lens[static_cast<std::size_t>(j)] = j + 1;
    displs[static_cast<std::size_t>(j)] = j * ld * 8;
  }
  return Datatype::struct_type(lens, displs, types);
}

DatatypePtr stair_hindexed(std::int64_t n, std::int64_t ld,
                           std::int64_t nb) {
  std::vector<std::int64_t> lens(static_cast<std::size_t>(n));
  std::vector<std::int64_t> displs(static_cast<std::size_t>(n));
  for (std::int64_t j = 0; j < n; ++j) {
    const std::int64_t r = (j / nb) * nb;
    lens[static_cast<std::size_t>(j)] = n - r;
    displs[static_cast<std::size_t>(j)] = (j * ld + r) * 8;
  }
  return Datatype::hindexed(lens, displs, mpi::kDouble());
}

/// Transpose built block-by-block (one indexed_block entry per matrix
/// element) - the canonical pass re-rolls it into transpose_type's
/// nested loops.
DatatypePtr transpose_flat(std::int64_t n, std::int64_t ld) {
  std::vector<std::int64_t> displs;
  displs.reserve(static_cast<std::size_t>(n * n));
  for (std::int64_t j = 0; j < n; ++j)
    for (std::int64_t k = 0; k < n; ++k) displs.push_back(j + k * ld);
  return Datatype::indexed_block(1, displs, mpi::kDouble());
}

/// Seeded irregular indexed layout; `variant` switches the constructor
/// (element vs byte displacements) without changing the shape.
DatatypePtr random_irregular(std::uint32_t seed, int variant) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<std::int64_t> len(1, 6);
  std::uniform_int_distribution<std::int64_t> gap(1, 9);
  const std::size_t nblocks = 12 + static_cast<std::size_t>(rng() % 8);
  std::vector<std::int64_t> lens(nblocks);
  std::vector<std::int64_t> displs(nblocks);
  std::int64_t d = 0;
  for (std::size_t i = 0; i < nblocks; ++i) {
    lens[i] = len(rng);
    displs[i] = d;
    d += lens[i] + gap(rng);
  }
  if (variant == 0) return Datatype::indexed(lens, displs, mpi::kDouble());
  for (auto& x : displs) x *= 8;
  return Datatype::hindexed(lens, displs, mpi::kDouble());
}

struct ZooEntry {
  DatatypePtr (*build)(int variant);
  std::int64_t count;
};

/// The zoo. Every entry returns a freshly committed type (new type_id)
/// on every call; odd rounds use the alternate constructor.
const ZooEntry kZoo[] = {
    {[](int v) {
       return v == 0 ? core::lower_triangular_type(32, 32)
                     : tri_hindexed(32, 32);
     },
     1},
    {[](int v) {
       return v == 0 ? core::lower_triangular_type(48, 48)
                     : tri_hindexed(48, 48);
     },
     1},
    // Same shape as the first entry but count 2: a distinct cache key.
    {[](int v) {
       return v == 0 ? core::lower_triangular_type(32, 32)
                     : tri_hindexed(32, 32);
     },
     2},
    {[](int v) {
       return v == 0 ? core::upper_triangular_type(32, 32)
                     : upper_struct(32, 32);
     },
     1},
    {[](int v) {
       return v == 0 ? core::upper_triangular_type(40, 40)
                     : upper_struct(40, 40);
     },
     1},
    {[](int v) {
       return v == 0 ? core::stair_triangular_type(32, 32, 8)
                     : stair_hindexed(32, 32, 8);
     },
     1},
    {[](int v) {
       return v == 0 ? core::stair_triangular_type(48, 48, 8)
                     : stair_hindexed(48, 48, 8);
     },
     1},
    {[](int v) {
       return v == 0 ? core::transpose_type(16, 16) : transpose_flat(16, 16);
     },
     1},
    {[](int v) {
       return v == 0 ? core::transpose_type(24, 24) : transpose_flat(24, 24);
     },
     1},
    {[](int v) { return random_irregular(101, v); }, 1},
    {[](int v) { return random_irregular(202, v); }, 1},
    {[](int v) { return random_irregular(303, v); }, 2},
};

constexpr int kRounds = 4;

/// One full pack of (dt, count); returns the payload bytes moved.
std::int64_t pack_once(sg::HostContext& ctx, core::GpuDatatypeEngine& eng,
                       const DatatypePtr& dt, std::int64_t count) {
  const std::int64_t total = dt->size() * count;
  const std::int64_t span =
      (count - 1) * dt->extent() + dt->true_extent() - dt->true_lb();
  auto* src = static_cast<std::byte*>(
      sg::Malloc(ctx, static_cast<std::size_t>(span)));
  auto* packed = static_cast<std::byte*>(
      sg::Malloc(ctx, static_cast<std::size_t>(total)));
  std::memset(src, 0, static_cast<std::size_t>(span));
  auto op = eng.start(core::GpuDatatypeEngine::Dir::kPack, dt, count,
                      src - dt->true_lb());
  eng.drain(*op, packed, 0, 256 << 10);
  sg::Free(ctx, src);
  sg::Free(ctx, packed);
  return total;
}

void BM_DDTZoo_Capacity(benchmark::State& state) {
  const std::int64_t cap_bytes = state.range(0) * 1024;
  const obs::Registry& reg = obs::default_recorder().metrics();
  for (auto _ : state) {
    const std::int64_t dedup0 = reg.value("dev_cache.shape_dedup.hits");
    sg::Machine m{bench_machine()};
    sg::HostContext ctx(m, 0);
    core::EngineConfig cfg;
    cfg.cache_max_bytes = cap_bytes;
    cfg.recorder = &obs::default_recorder();
    core::GpuDatatypeEngine eng(ctx, cfg);
    std::int64_t payload = 0;
    for (int round = 0; round < kRounds; ++round) {
      for (const auto& z : kZoo) {
        payload += pack_once(ctx, eng, z.build(round % 2), z.count);
      }
    }
    eng.synchronize();
    const auto& cache = eng.cache();
    const double lookups =
        static_cast<double>(cache.hits() + cache.misses());
    state.counters["hit_rate"] = benchmark::Counter(
        lookups > 0 ? static_cast<double>(cache.hits()) / lookups : 0.0);
    state.counters["dedup_hits"] = benchmark::Counter(static_cast<double>(
        reg.value("dev_cache.shape_dedup.hits") - dedup0));
    state.counters["evictions"] =
        benchmark::Counter(static_cast<double>(cache.evictions()));
    state.counters["desc_KB"] = benchmark::Counter(
        static_cast<double>(cache.bytes()) / 1024.0);
    record(state, ctx.clock.now(), payload);
  }
}
BENCHMARK(BM_DDTZoo_Capacity)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->Arg(0)  // unbounded: the dedup ceiling
    ->UseManualTime()
    ->Iterations(1);

}  // namespace
}  // namespace gpuddt::bench

GPUDDT_BENCH_MAIN();

// Timing-shape tests: the paper's qualitative results for Figures 6-10
// (Section 5), encoded as assertions against the virtual-time harness at
// one matrix order. These pin down the behaviours the benchmark figures
// rely on - if a refactor breaks a ratio, these fail before the figures
// drift. The figure claims themselves, over each bench's own sweep, are
// the kClaims of bench/bench_fig*.cpp and bench/bench_ablation_*.cpp.
#include <gtest/gtest.h>

#include "baselines/mvapich_plugin.h"
#include "core/layouts.h"
#include "harness/harness.h"
#include "simgpu/runtime.h"

namespace gpuddt::harness {
namespace {

sg::MachineConfig big_machine() {
  sg::MachineConfig m;
  m.num_devices = 2;
  m.device_memory_bytes = std::size_t{3} << 30;
  return m;
}

mpi::RuntimeConfig pingpong_cfg() {
  mpi::RuntimeConfig cfg;
  cfg.world_size = 2;
  cfg.machine = big_machine();
  return cfg;
}

constexpr std::int64_t kN = 2048;  // matrix order used throughout

// --- Figure 6: kernel bandwidths ------------------------------------------------------

TEST(Fig6Shape, VectorKernelReaches90PercentOfMemcpy) {
  auto dt = core::submatrix_type(kN, kN / 2, kN + 512);
  const double peak = memcpy_d2d_bandwidth(dt->size(), big_machine());
  const double bw = kernel_pack_bandwidth(dt, 1, {}, big_machine());
  EXPECT_GT(bw, 0.88 * peak);
  EXPECT_LT(bw, peak);
}

TEST(Fig6Shape, TriangularKernelLosesToOccupancy) {
  auto tri = core::lower_triangular_type(kN, kN);
  const double peak = memcpy_d2d_bandwidth(tri->size(), big_machine());
  const double bw = kernel_pack_bandwidth(tri, 1, {}, big_machine());
  EXPECT_GT(bw, 0.70 * peak);
  EXPECT_LT(bw, 0.90 * peak);
}

TEST(Fig6Shape, StairTriangleRecoversVectorBandwidth) {
  auto tri = core::lower_triangular_type(kN, kN);
  auto stair = core::stair_triangular_type(kN, kN, 128);
  const double tri_bw = kernel_pack_bandwidth(tri, 1, {}, big_machine());
  const double stair_bw = kernel_pack_bandwidth(stair, 1, {}, big_machine());
  const double vec_bw = kernel_pack_bandwidth(
      core::submatrix_type(kN, kN / 2, kN + 512), 1, {}, big_machine());
  EXPECT_GT(stair_bw, tri_bw);
  EXPECT_GT(stair_bw, 0.95 * vec_bw);
}

// --- Figure 7: pipelining, caching, zero-copy -------------------------------------------

TEST(Fig7Shape, ConversionPipeliningNearlyDoublesThroughput) {
  PackBenchSpec spec;
  spec.dt = core::lower_triangular_type(kN, kN);
  spec.machine = big_machine();
  spec.engine.cache_enabled = false;
  spec.engine.pipeline_conversion = false;
  const auto plain = run_pack_bench(spec);
  spec.engine.pipeline_conversion = true;
  const auto pipelined = run_pack_bench(spec);
  EXPECT_LT(static_cast<double>(pipelined.avg_ns),
            0.70 * static_cast<double>(plain.avg_ns));
}

TEST(Fig7Shape, CachedBeatsPipelined) {
  PackBenchSpec spec;
  spec.dt = core::lower_triangular_type(kN, kN);
  spec.machine = big_machine();
  spec.engine.cache_enabled = false;
  const auto pipelined = run_pack_bench(spec);
  spec.engine.cache_enabled = true;
  spec.warmup = 1;  // fill the cache
  const auto cached = run_pack_bench(spec);
  EXPECT_LT(cached.avg_ns, pipelined.avg_ns);
}

TEST(Fig7Shape, ZeroCopySlightlyFasterThanExplicitStaging) {
  PackBenchSpec spec;
  spec.dt = core::submatrix_type(kN, kN / 2, kN + 512);
  spec.machine = big_machine();
  spec.target = PackTarget::kDeviceHost;
  const auto explicit_staging = run_pack_bench(spec);
  spec.target = PackTarget::kZeroCopy;
  const auto zero_copy = run_pack_bench(spec);
  EXPECT_LT(zero_copy.avg_ns, explicit_staging.avg_ns);
  // ... but not dramatically: the PCI-E link is the shared bottleneck.
  EXPECT_GT(static_cast<double>(zero_copy.avg_ns),
            0.5 * static_cast<double>(explicit_staging.avg_ns));
}

TEST(Fig7Shape, GoingThroughHostDominatedByPcie) {
  PackBenchSpec spec;
  spec.dt = core::submatrix_type(kN, kN / 2, kN + 512);
  spec.machine = big_machine();
  spec.target = PackTarget::kDevice;
  const auto d2d = run_pack_bench(spec);
  spec.target = PackTarget::kZeroCopy;
  const auto through_host = run_pack_bench(spec);
  EXPECT_GT(through_host.avg_ns, 3 * d2d.avg_ns);
}

// --- Figure 8: vector kernel vs cudaMemcpy2D ------------------------------------------------

TEST(Fig8Shape, KernelMatchesMemcpy2dOnDevice) {
  sg::Machine machine(big_machine());
  sg::HostContext ctx(machine, 0);
  const std::int64_t blocks = 8192, blk = 1024, pitch = 2048;
  auto* src = static_cast<std::byte*>(sg::Malloc(ctx, blocks * pitch));
  auto* dst = static_cast<std::byte*>(sg::Malloc(ctx, blocks * blk));
  // cudaMemcpy2D d2d.
  const vt::Time t0 = ctx.clock.now();
  sg::Memcpy2D(ctx, dst, blk, src, pitch, blk, blocks);
  const vt::Time mcp2d = ctx.clock.now() - t0;
  // Our kernel.
  sg::Stream stream(&machine.device(0));
  mpi::RegularPattern pat{0, blk, pitch, blocks};
  const vt::Time k0 = ctx.clock.now();
  const vt::Time fin = core::pack_vector_kernel(ctx, stream, src, pat, 0,
                                                blocks * blk, dst, 64);
  const vt::Time kernel = fin - k0;
  EXPECT_LT(static_cast<double>(kernel), 1.3 * static_cast<double>(mcp2d));
  EXPECT_GT(static_cast<double>(kernel), 0.7 * static_cast<double>(mcp2d));
}

TEST(Fig8Shape, Memcpy2dRegressesOffGranule) {
  sg::Machine machine(big_machine());
  sg::HostContext ctx(machine, 0);
  const std::int64_t blocks = 8192, pitch = 2048;
  auto* src = static_cast<std::byte*>(sg::Malloc(ctx, blocks * pitch));
  std::vector<std::byte> host(static_cast<std::size_t>(blocks * 1024));
  const vt::Time t0 = ctx.clock.now();
  sg::Memcpy2D(ctx, host.data(), 1024, src, pitch, 1024, blocks);
  const vt::Time aligned = ctx.clock.now() - t0;
  const vt::Time t1 = ctx.clock.now();
  sg::Memcpy2D(ctx, host.data(), 1024, src, pitch, 1000, blocks);
  const vt::Time off_granule = ctx.clock.now() - t1;
  // Nearly the same payload, much worse time (Figure 8's sawtooth).
  EXPECT_GT(static_cast<double>(off_granule),
            1.8 * static_cast<double>(aligned));
}

// --- Figures 9-10: ping-pong shapes -------------------------------------------------------

PingPongResult pingpong_of(const mpi::DatatypePtr& dt,
                           mpi::RuntimeConfig cfg,
                           std::shared_ptr<mpi::GpuTransferPlugin> plugin =
                               nullptr) {
  PingPongSpec spec;
  spec.cfg = std::move(cfg);
  spec.dt0 = spec.dt1 = dt;
  spec.plugin = std::move(plugin);
  return run_pingpong(spec);
}

TEST(Fig9Shape, VectorPingPongNearsContiguousBandwidth) {
  auto cfg = pingpong_cfg();
  auto vec = core::submatrix_type(kN, kN / 2, kN + 512);
  auto cont = mpi::Datatype::contiguous(vec->size() / 8, mpi::kDouble());
  const auto v = pingpong_of(vec, cfg);
  const auto c = pingpong_of(cont, cfg);
  EXPECT_GT(v.bandwidth_gbps(), 0.75 * c.bandwidth_gbps());
}

TEST(Fig9Shape, TriangularTrailsVector) {
  auto cfg = pingpong_cfg();
  auto tri = core::lower_triangular_type(kN, kN);
  auto cont = mpi::Datatype::contiguous(tri->size() / 8, mpi::kDouble());
  const auto t = pingpong_of(tri, cfg);
  const auto c = pingpong_of(cont, cfg);
  EXPECT_GT(t.bandwidth_gbps(), 0.55 * c.bandwidth_gbps());
  EXPECT_LT(t.bandwidth_gbps(), 0.95 * c.bandwidth_gbps());
}

TEST(Fig10Shape, SameGpuAtLeastTwiceAsFastAsTwoGpus) {
  auto dt = core::submatrix_type(kN, kN / 2, kN + 512);
  auto cfg1 = pingpong_cfg();
  cfg1.device_of = [](int) { return 0; };
  const auto one_gpu = pingpong_of(dt, cfg1);
  const auto two_gpus = pingpong_of(dt, pingpong_cfg());
  EXPECT_GT(static_cast<double>(two_gpus.avg_roundtrip),
            1.8 * static_cast<double>(one_gpu.avg_roundtrip));
}

TEST(Fig10Shape, LocalStagingBeatsRemoteUnpack) {
  auto dt = core::lower_triangular_type(kN, kN);
  auto with = pingpong_cfg();
  with.recv_local_staging = true;
  auto without = pingpong_cfg();
  without.recv_local_staging = false;
  const auto staged = pingpong_of(dt, with);
  const auto remote = pingpong_of(dt, without);
  // Paper: 10-20% faster with the local staging buffer.
  EXPECT_LT(static_cast<double>(staged.avg_roundtrip),
            0.99 * static_cast<double>(remote.avg_roundtrip));
  EXPECT_GT(static_cast<double>(staged.avg_roundtrip),
            0.60 * static_cast<double>(remote.avg_roundtrip));
}

TEST(Fig10Shape, OursBeatsMvapichStyleOnVectorSm) {
  auto dt = core::submatrix_type(kN, kN / 2, kN + 512);
  const auto ours = pingpong_of(dt, pingpong_cfg());
  const auto theirs = pingpong_of(dt, pingpong_cfg(),
                                  std::make_shared<base::MvapichLikePlugin>());
  EXPECT_LT(static_cast<double>(ours.avg_roundtrip),
            0.8 * static_cast<double>(theirs.avg_roundtrip));
}

TEST(Fig10Shape, MvapichStyleIndexedBlowsUp) {
  auto dt = core::lower_triangular_type(kN, kN);
  const auto ours = pingpong_of(dt, pingpong_cfg());
  const auto theirs = pingpong_of(dt, pingpong_cfg(),
                                  std::make_shared<base::MvapichLikePlugin>());
  // One cudaMemcpy2D per column: the call overhead dominates (the series
  // that leaves the plot in Figure 10).
  EXPECT_GT(static_cast<double>(theirs.avg_roundtrip),
            3.0 * static_cast<double>(ours.avg_roundtrip));
}

TEST(Fig10Shape, IbVectorAboutHalfFasterThanBaseline) {
  auto dt = core::submatrix_type(kN, kN / 2, kN + 512);
  auto cfg = pingpong_cfg();
  cfg.ranks_per_node = 1;
  const auto ours = pingpong_of(dt, cfg);
  const auto theirs =
      pingpong_of(dt, cfg, std::make_shared<base::MvapichLikePlugin>());
  const double speedup = static_cast<double>(theirs.avg_roundtrip) /
                         static_cast<double>(ours.avg_roundtrip);
  EXPECT_GT(speedup, 1.2);
  EXPECT_LT(speedup, 3.0);
}

}  // namespace
}  // namespace gpuddt::harness

// Section 5.3: the minimal GPU resources (CUDA blocks allotted to the
// pack/unpack kernels) needed for optimal communication performance.
//
// Two views:
//   * kernel-only pack bandwidth vs. blocks - scales until the memory
//     system saturates;
//   * full ping-pong round trip vs. blocks - flattens much earlier,
//     because PCI-E is the bottleneck once a handful of blocks keep up.
#include "bench_common.h"

namespace gpuddt::bench {
namespace {

void blocks_sweep(benchmark::internal::Benchmark* b) {
  for (std::int64_t blocks : {1, 2, 4, 8, 15, 32, 64}) b->Arg(blocks);
}

constexpr std::int64_t kN = 2048;

void BM_Resources_KernelBandwidth(benchmark::State& state) {
  core::EngineConfig eng;
  eng.kernel_blocks = static_cast<int>(state.range(0));
  auto dt = v_type(kN);
  for (auto _ : state) {
    const double gbps =
        harness::kernel_pack_bandwidth(dt, 1, eng, bench_machine());
    record(state, static_cast<vt::Time>(dt->size() / gbps), dt->size());
  }
}
BENCHMARK(BM_Resources_KernelBandwidth)
    ->Apply(blocks_sweep)
    ->UseManualTime()
    ->Iterations(2);

void BM_Resources_PingPong(benchmark::State& state) {
  harness::PingPongSpec spec;
  spec.cfg = bench_pingpong_cfg();
  spec.cfg.gpu_kernel_blocks = static_cast<int>(state.range(0));
  spec.dt0 = spec.dt1 = v_type(kN);
  for (auto _ : state) {
    const auto res = harness::run_pingpong(spec);
    record(state, res.avg_roundtrip, res.message_bytes);
  }
}
BENCHMARK(BM_Resources_PingPong)
    ->Apply(blocks_sweep)
    ->UseManualTime()
    ->Iterations(1);

void BM_Resources_PingPong_T(benchmark::State& state) {
  harness::PingPongSpec spec;
  spec.cfg = bench_pingpong_cfg();
  spec.cfg.gpu_kernel_blocks = static_cast<int>(state.range(0));
  spec.dt0 = spec.dt1 = t_type(kN);
  for (auto _ : state) {
    const auto res = harness::run_pingpong(spec);
    record(state, res.avg_roundtrip, res.message_bytes);
  }
}
BENCHMARK(BM_Resources_PingPong_T)
    ->Apply(blocks_sweep)
    ->UseManualTime()
    ->Iterations(1);


const Claim kClaims[] = {
    {"Sec. 5.3: a few blocks suffice: the V ping-pong with 4 blocks is "
     "within 25 % of 64 blocks, and 1 block is > 2 % slower",
     [](const Results& r) {
       const double wide = r.ns("BM_Resources_PingPong/64");
       return r.ns("BM_Resources_PingPong/4") < 1.25 * wide &&
              r.ns("BM_Resources_PingPong/1") > 1.02 * wide;
     }},
};

}  // namespace
}  // namespace gpuddt::bench

GPUDDT_BENCH_MAIN(kClaims);

// GPUDirect RDMA crossover (Section 5.2 / [14]): "even though the
// GPUDirect RDMA allows direct inter-node GPU data communication, it only
// delivers interesting performance for small messages (less than 30KB)".
//
// Contiguous GPU-to-GPU ping-pong over IB, message-size sweep:
//   direct  - GPUDirect RDMA forced for every size (limit = infinity)
//   staged  - pipelined copy-in/out through host memory
//   policy  - the default adaptive policy (direct below 30KB, staged above)
// The direct series wins below ~30KB and loses beyond; the policy series
// tracks the lower envelope.
#include "bench_common.h"

namespace gpuddt::bench {
namespace {

void size_sweep(benchmark::internal::Benchmark* b) {
  for (std::int64_t kb : {1, 4, 16, 32, 128, 1024, 16384}) b->Arg(kb);
}

enum class Mode { kDirect, kStaged, kPolicy };

void run_gd(benchmark::State& state, Mode mode) {
  const std::int64_t bytes = state.range(0) * 1024;
  harness::PingPongSpec spec;
  spec.cfg = bench_pingpong_cfg();
  spec.cfg.ranks_per_node = 1;
  spec.cfg.gpu_eager_limit = 0;  // isolate the rendezvous protocols
  switch (mode) {
    case Mode::kDirect:
      spec.cfg.gpudirect_rdma = true;
      spec.cfg.gpudirect_limit_bytes = INT64_MAX;
      break;
    case Mode::kStaged:
      spec.cfg.gpudirect_rdma = false;
      break;
    case Mode::kPolicy:
      spec.cfg.gpudirect_rdma = true;  // default 30KB limit
      break;
  }
  spec.dt0 = spec.dt1 =
      mpi::Datatype::contiguous(bytes / 8, mpi::kDouble());
  spec.iters = 4;
  for (auto _ : state) {
    const auto res = harness::run_pingpong(spec);
    record(state, res.avg_roundtrip, res.message_bytes);
  }
}

void BM_GpuDirect_Direct(benchmark::State& state) {
  run_gd(state, Mode::kDirect);
}
BENCHMARK(BM_GpuDirect_Direct)
    ->Apply(size_sweep)
    ->UseManualTime()
    ->Iterations(1);

void BM_GpuDirect_Staged(benchmark::State& state) {
  run_gd(state, Mode::kStaged);
}
BENCHMARK(BM_GpuDirect_Staged)
    ->Apply(size_sweep)
    ->UseManualTime()
    ->Iterations(1);

void BM_GpuDirect_Policy(benchmark::State& state) {
  run_gd(state, Mode::kPolicy);
}
BENCHMARK(BM_GpuDirect_Policy)
    ->Apply(size_sweep)
    ->UseManualTime()
    ->Iterations(1);


const Claim kClaims[] = {
    {"GPUDirect beats host staging at 4 KB and 16 KB (paper: below 30 KB)",
     [](const Results& r) {
       return holds_for({"/4", "/16"}, [&](const std::string& kb) {
         return r.ns("BM_GpuDirect_Direct" + kb) <
                r.ns("BM_GpuDirect_Staged" + kb);
       });
     }},
    {"host staging beats GPUDirect at 1 MB and 16 MB",
     [](const Results& r) {
       return holds_for({"/1024", "/16384"}, [&](const std::string& kb) {
         return r.ns("BM_GpuDirect_Staged" + kb) <
                r.ns("BM_GpuDirect_Direct" + kb);
       });
     }},
};

}  // namespace
}  // namespace gpuddt::bench

GPUDDT_BENCH_MAIN(kClaims);

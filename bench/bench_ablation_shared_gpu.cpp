// Section 5.4: impact on non-contiguous transfers when the GPU is shared
// with a compute-intensive application. A background kernel occupying
// `Arg` SMs is launched on the sender's device every iteration; the
// pack/unpack kernels contend for the remaining slots.
#include "bench_common.h"

namespace gpuddt::bench {
namespace {

void load_sweep(benchmark::internal::Benchmark* b) {
  for (std::int64_t sms : {0, 4, 8, 12, 15}) b->Arg(sms);
}

void run_shared(benchmark::State& state, const mpi::DatatypePtr& dt) {
  const int busy_sms = static_cast<int>(state.range(0));
  harness::PingPongSpec spec;
  spec.cfg = bench_pingpong_cfg();
  spec.dt0 = spec.dt1 = dt;
  if (busy_sms > 0) {
    spec.background = [busy_sms](mpi::Process& p) {
      sg::Stream s(&p.gpu().dev());
      sg::KernelProfile prof;
      prof.device_txn_bytes = 96 << 20;  // a hefty compute burst
      prof.blocks = busy_sms;
      sg::LaunchKernel(p.gpu(), s, prof);
    };
  }
  for (auto _ : state) {
    const auto res = harness::run_pingpong(spec);
    record(state, res.avg_roundtrip, res.message_bytes);
  }
}

void BM_SharedGpu_V(benchmark::State& state) {
  run_shared(state, v_type(2048));
}
BENCHMARK(BM_SharedGpu_V)->Apply(load_sweep)->UseManualTime()->Iterations(1);

void BM_SharedGpu_T(benchmark::State& state) {
  run_shared(state, t_type(2048));
}
BENCHMARK(BM_SharedGpu_T)->Apply(load_sweep)->UseManualTime()->Iterations(1);


const Claim kClaims[] = {
    {"Sec. 5.4: a co-running kernel on 12 SMs slows the T ping-pong",
     [](const Results& r) {
       return r.ns("BM_SharedGpu_T/12") > r.ns("BM_SharedGpu_T/0");
     }},
};

}  // namespace
}  // namespace gpuddt::bench

GPUDDT_BENCH_MAIN(kClaims);

// Figure 11: ping-pong where the sender uses a vector type and the
// receiver a contiguous type of identical signature (the FFT reshape
// pattern of Section 5.2.2), in shared and distributed memory, ours vs.
// the MVAPICH-style baseline. The contiguous side triggers the RDMA
// handshake shortcuts of Section 4.1.
#include "bench_common.h"

namespace gpuddt::bench {
namespace {

void run_vc(benchmark::State& state, bool ib, bool baseline,
            bool vector_sends) {
  const std::int64_t n = state.range(0);
  auto vec = v_type(n);
  auto cont = c_type_of(vec);
  harness::PingPongSpec spec;
  spec.cfg = bench_pingpong_cfg();
  if (ib) spec.cfg.ranks_per_node = 1;
  spec.dt0 = vector_sends ? vec : cont;
  spec.dt1 = vector_sends ? cont : vec;
  if (baseline) spec.plugin = std::make_shared<base::MvapichLikePlugin>();
  for (auto _ : state) {
    const auto res = harness::run_pingpong(spec);
    record(state, res.avg_roundtrip, res.message_bytes);
  }
}

void BM_Fig11_SM_VtoC(benchmark::State& state) {
  run_vc(state, false, false, true);
}
BENCHMARK(BM_Fig11_SM_VtoC)
    ->Apply(small_matrix_sizes)
    ->UseManualTime()
    ->Iterations(1);

void BM_Fig11_SM_CtoV(benchmark::State& state) {
  run_vc(state, false, false, false);
}
BENCHMARK(BM_Fig11_SM_CtoV)
    ->Apply(small_matrix_sizes)
    ->UseManualTime()
    ->Iterations(1);

void BM_Fig11_SM_VtoC_MVAPICH(benchmark::State& state) {
  run_vc(state, false, true, true);
}
BENCHMARK(BM_Fig11_SM_VtoC_MVAPICH)
    ->Apply(small_matrix_sizes)
    ->UseManualTime()
    ->Iterations(1);

void BM_Fig11_IB_VtoC(benchmark::State& state) {
  run_vc(state, true, false, true);
}
BENCHMARK(BM_Fig11_IB_VtoC)
    ->Apply(small_matrix_sizes)
    ->UseManualTime()
    ->Iterations(1);

void BM_Fig11_IB_VtoC_MVAPICH(benchmark::State& state) {
  run_vc(state, true, true, true);
}
BENCHMARK(BM_Fig11_IB_VtoC_MVAPICH)
    ->Apply(small_matrix_sizes)
    ->UseManualTime()
    ->Iterations(1);


const Claim kClaims[] = {
    {"Fig. 11: the V->C reshape beats the baseline (SM, N 2048)",
     [](const Results& r) {
       return r.ns("BM_Fig11_SM_VtoC/2048") <
              r.ns("BM_Fig11_SM_VtoC_MVAPICH/2048");
     }},
};

}  // namespace
}  // namespace gpuddt::bench

GPUDDT_BENCH_MAIN(kClaims);

// Figure 12 (Section 5.2.3): matrix transpose ping-pong - the datatype
// engine stress test. The sender ships a contiguous column-major matrix;
// the receiver unpacks it with the transpose type (N vectors of
// blocklength one element), so every element is its own contiguous block.
#include "bench_common.h"

namespace gpuddt::bench {
namespace {

void transpose_sizes(benchmark::internal::Benchmark* b) {
  for (std::int64_t n : {128, 256, 512, 1024}) b->Arg(n);
}

void run_tp(benchmark::State& state, bool baseline, bool ib) {
  const std::int64_t n = state.range(0);
  auto cont = mpi::Datatype::contiguous(n * n, mpi::kDouble());
  auto trans = core::transpose_type(n, n);
  harness::PingPongSpec spec;
  spec.cfg = bench_pingpong_cfg();
  if (ib) spec.cfg.ranks_per_node = 1;
  spec.dt0 = cont;
  spec.dt1 = trans;
  spec.iters = 2;
  if (baseline) spec.plugin = std::make_shared<base::MvapichLikePlugin>();
  for (auto _ : state) {
    const auto res = harness::run_pingpong(spec);
    record(state, res.avg_roundtrip, res.message_bytes);
  }
}

void BM_Fig12_SM_Transpose(benchmark::State& state) {
  run_tp(state, false, false);
}
BENCHMARK(BM_Fig12_SM_Transpose)
    ->Apply(transpose_sizes)
    ->UseManualTime()
    ->Iterations(1);

void BM_Fig12_SM_Transpose_MVAPICH(benchmark::State& state) {
  run_tp(state, true, false);
}
BENCHMARK(BM_Fig12_SM_Transpose_MVAPICH)
    ->Apply(transpose_sizes)
    ->UseManualTime()
    ->Iterations(1);

void BM_Fig12_IB_Transpose(benchmark::State& state) {
  run_tp(state, false, true);
}
BENCHMARK(BM_Fig12_IB_Transpose)
    ->Apply(transpose_sizes)
    ->UseManualTime()
    ->Iterations(1);


const Claim kClaims[] = {
    {"Fig. 12: the baseline's transpose takes > 5x ours (SM, N 512 and "
     "1024)",
     [](const Results& r) {
       return holds_for({"/512", "/1024"}, [&](const std::string& n) {
         return r.ns("BM_Fig12_SM_Transpose_MVAPICH" + n) >
                5 * r.ns("BM_Fig12_SM_Transpose" + n);
       });
     }},
};

}  // namespace
}  // namespace gpuddt::bench

GPUDDT_BENCH_MAIN(kClaims);

// Figure 10: ping-pong with sub-matrix (V) and triangular (T) datatypes,
// ours vs. the MVAPICH2-GDR-style baseline:
//   (a) shared memory, both ranks on the SAME GPU   (SM_1GPU)
//   (b) shared memory, two GPUs                     (SM_2GPU)
//   (c) distributed memory over InfiniBand          (IB)
//
// Expected shapes: ours always faster; the baseline's indexed series blows
// up (one cudaMemcpy2D per column) and leaves the plot by N ~ 2000; the
// 1GPU case is at least ~2x faster than 2GPU.
#include "bench_common.h"

namespace gpuddt::bench {
namespace {

enum class Topo { kSm1Gpu, kSm2Gpu, kIb };

mpi::RuntimeConfig topo_cfg(Topo t) {
  auto cfg = bench_pingpong_cfg();
  switch (t) {
    case Topo::kSm1Gpu:
      cfg.device_of = [](int) { return 0; };
      break;
    case Topo::kSm2Gpu:
      break;
    case Topo::kIb:
      cfg.ranks_per_node = 1;
      break;
  }
  return cfg;
}

void run_pp(benchmark::State& state, Topo topo, const mpi::DatatypePtr& dt,
            bool baseline) {
  harness::PingPongSpec spec;
  spec.cfg = topo_cfg(topo);
  spec.dt0 = spec.dt1 = dt;
  if (baseline) spec.plugin = std::make_shared<base::MvapichLikePlugin>();
  for (auto _ : state) {
    const auto res = harness::run_pingpong(spec);
    record(state, res.avg_roundtrip, res.message_bytes);
  }
}

#define FIG10_BENCH(name, topo, type_fn, baseline)                       \
  void BM_Fig10_##name(benchmark::State& state) {                        \
    run_pp(state, topo, type_fn(state.range(0)), baseline);              \
  }                                                                      \
  BENCHMARK(BM_Fig10_##name)                                             \
      ->Apply(small_matrix_sizes)                                        \
      ->UseManualTime()                                                  \
      ->Iterations(1)

FIG10_BENCH(SM_1GPU_V, Topo::kSm1Gpu, v_type, false);
FIG10_BENCH(SM_1GPU_T, Topo::kSm1Gpu, t_type, false);
FIG10_BENCH(SM_1GPU_V_MVAPICH, Topo::kSm1Gpu, v_type, true);
FIG10_BENCH(SM_1GPU_T_MVAPICH, Topo::kSm1Gpu, t_type, true);

FIG10_BENCH(SM_2GPU_V, Topo::kSm2Gpu, v_type, false);
FIG10_BENCH(SM_2GPU_T, Topo::kSm2Gpu, t_type, false);
FIG10_BENCH(SM_2GPU_V_MVAPICH, Topo::kSm2Gpu, v_type, true);
FIG10_BENCH(SM_2GPU_T_MVAPICH, Topo::kSm2Gpu, t_type, true);

FIG10_BENCH(IB_V, Topo::kIb, v_type, false);
FIG10_BENCH(IB_T, Topo::kIb, t_type, false);
FIG10_BENCH(IB_V_MVAPICH, Topo::kIb, v_type, true);
FIG10_BENCH(IB_T_MVAPICH, Topo::kIb, t_type, true);


const Claim kClaims[] = {
    {"Fig. 10: ours beats the MVAPICH-style baseline in all six "
     "configurations, and by > 20 % on SM-2GPU V",
     [](const Results& r) {
       return holds_for({"SM_1GPU_V", "SM_1GPU_T", "SM_2GPU_V",
                         "SM_2GPU_T", "IB_V", "IB_T"},
                        [&](const std::string& c) {
                          return r.ns("BM_Fig10_" + c + "/2048") <
                                 r.ns("BM_Fig10_" + c + "_MVAPICH/2048");
                        }) &&
              r.ns("BM_Fig10_SM_2GPU_V/2048") <
                  0.8 * r.ns("BM_Fig10_SM_2GPU_V_MVAPICH/2048");
     }},
    {"Fig. 10: the baseline's indexed series blows up: SM-2GPU T takes "
     "> 3x ours",
     [](const Results& r) {
       return r.ns("BM_Fig10_SM_2GPU_T_MVAPICH/2048") >
              3 * r.ns("BM_Fig10_SM_2GPU_T/2048");
     }},
    {"Fig. 10: one GPU is about 2x faster than two: SM-2GPU V takes > 1.8x "
     "SM-1GPU V (paper: at least 2x)",
     [](const Results& r) {
       return r.ns("BM_Fig10_SM_2GPU_V/2048") >
              1.8 * r.ns("BM_Fig10_SM_1GPU_V/2048");
     }},
    {"Fig. 10: over IB ours is 1.2-3x faster than the baseline on V "
     "(paper ~1.5x)",
     [](const Results& r) {
       const double speedup = r.ns("BM_Fig10_IB_V_MVAPICH/2048") /
                              r.ns("BM_Fig10_IB_V/2048");
       return speedup > 1.2 && speedup < 3.0;
     }},
};

}  // namespace
}  // namespace gpuddt::bench

GPUDDT_BENCH_MAIN(kClaims);

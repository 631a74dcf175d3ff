// Figure 7: pack + unpack time of the GPU datatype engine vs. matrix size.
//
// Left panel (bypass CPU - everything stays on the device):
//   V-d2d            vector fast path
//   T-d2d            triangular, conversion NOT pipelined with kernels
//   T-d2d-pipeline   triangular, pipelined conversion (~2x faster)
//   T-d2d-cached     triangular, CUDA DEV array cached
// Right panel (through host memory):
//   V-d2d2h / T-d2d2h-cached   pack to device + explicit D2H round trip
//   V-cpy  / T-cpy-cached      zero-copy (UMA-mapped host buffer)
#include "bench_common.h"

namespace gpuddt::bench {
namespace {

harness::PackBenchSpec base_spec(mpi::DatatypePtr dt) {
  harness::PackBenchSpec spec;
  spec.dt = std::move(dt);
  spec.machine = bench_machine();
  return spec;
}

void run_spec(benchmark::State& state, harness::PackBenchSpec spec) {
  for (auto _ : state) {
    const auto res = harness::run_pack_bench(spec);
    record(state, res.avg_ns, res.bytes);
  }
}

void BM_Fig7_V_d2d(benchmark::State& state) {
  auto spec = base_spec(v_type(state.range(0)));
  run_spec(state, std::move(spec));
}
BENCHMARK(BM_Fig7_V_d2d)->Apply(matrix_sizes)->UseManualTime()->Iterations(2);

void BM_Fig7_T_d2d(benchmark::State& state) {
  auto spec = base_spec(t_type(state.range(0)));
  spec.engine.cache_enabled = false;
  spec.engine.pipeline_conversion = false;
  run_spec(state, std::move(spec));
}
BENCHMARK(BM_Fig7_T_d2d)->Apply(matrix_sizes)->UseManualTime()->Iterations(2);

void BM_Fig7_T_d2d_pipeline(benchmark::State& state) {
  auto spec = base_spec(t_type(state.range(0)));
  spec.engine.cache_enabled = false;
  spec.engine.pipeline_conversion = true;
  run_spec(state, std::move(spec));
}
BENCHMARK(BM_Fig7_T_d2d_pipeline)
    ->Apply(matrix_sizes)
    ->UseManualTime()
    ->Iterations(2);

void BM_Fig7_T_d2d_cached(benchmark::State& state) {
  auto spec = base_spec(t_type(state.range(0)));
  spec.warmup = 1;  // first round fills the DEV cache
  run_spec(state, std::move(spec));
}
BENCHMARK(BM_Fig7_T_d2d_cached)
    ->Apply(matrix_sizes)
    ->UseManualTime()
    ->Iterations(2);

void BM_Fig7_V_d2d2h(benchmark::State& state) {
  auto spec = base_spec(v_type(state.range(0)));
  spec.target = harness::PackTarget::kDeviceHost;
  run_spec(state, std::move(spec));
}
BENCHMARK(BM_Fig7_V_d2d2h)
    ->Apply(matrix_sizes)
    ->UseManualTime()
    ->Iterations(2);

void BM_Fig7_V_cpy(benchmark::State& state) {
  auto spec = base_spec(v_type(state.range(0)));
  spec.target = harness::PackTarget::kZeroCopy;
  run_spec(state, std::move(spec));
}
BENCHMARK(BM_Fig7_V_cpy)->Apply(matrix_sizes)->UseManualTime()->Iterations(2);

void BM_Fig7_T_d2d2h_cached(benchmark::State& state) {
  auto spec = base_spec(t_type(state.range(0)));
  spec.target = harness::PackTarget::kDeviceHost;
  spec.warmup = 1;
  run_spec(state, std::move(spec));
}
BENCHMARK(BM_Fig7_T_d2d2h_cached)
    ->Apply(matrix_sizes)
    ->UseManualTime()
    ->Iterations(2);

void BM_Fig7_T_cpy_cached(benchmark::State& state) {
  auto spec = base_spec(t_type(state.range(0)));
  spec.target = harness::PackTarget::kZeroCopy;
  spec.warmup = 1;
  run_spec(state, std::move(spec));
}
BENCHMARK(BM_Fig7_T_cpy_cached)
    ->Apply(matrix_sizes)
    ->UseManualTime()
    ->Iterations(2);


const Claim kClaims[] = {
    {"Fig. 7: pipelined conversion takes < 70 % of plain T-d2d's time at "
     "N 2048 and 4096 (paper: almost doubles)",
     [](const Results& r) {
       return holds_for({"/2048", "/4096"}, [&](const std::string& n) {
         return r.ns("BM_Fig7_T_d2d_pipeline" + n) <
                0.70 * r.ns("BM_Fig7_T_d2d" + n);
       });
     }},
    {"Fig. 7: cached DEVs beat pipelined conversion",
     [](const Results& r) {
       return holds_for({"/2048", "/4096"}, [&](const std::string& n) {
         return r.ns("BM_Fig7_T_d2d_cached" + n) <
                r.ns("BM_Fig7_T_d2d_pipeline" + n);
       });
     }},
    {"Fig. 7: zero-copy is slightly faster than explicit staging: V-cpy "
     "takes 50-100 % of V-d2d2h, and T-cpy < T-d2d2h (cached)",
     [](const Results& r) {
       return holds_for({"/2048", "/4096"}, [&](const std::string& n) {
         const double v =
             r.ns("BM_Fig7_V_cpy" + n) / r.ns("BM_Fig7_V_d2d2h" + n);
         return v > 0.5 && v < 1.0 &&
                r.ns("BM_Fig7_T_cpy_cached" + n) <
                    r.ns("BM_Fig7_T_d2d2h_cached" + n);
       });
     }},
    {"Fig. 7: going through the host is PCI-E bound: V-cpy > 3x V-d2d",
     [](const Results& r) {
       return holds_for({"/2048", "/4096"}, [&](const std::string& n) {
         return r.ns("BM_Fig7_V_cpy" + n) > 3 * r.ns("BM_Fig7_V_d2d" + n);
       });
     }},
};

}  // namespace
}  // namespace gpuddt::bench

GPUDDT_BENCH_MAIN(kClaims);

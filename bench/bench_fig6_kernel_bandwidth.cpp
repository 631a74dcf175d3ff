// Figure 6: GPU memory bandwidth of the packing kernels.
//
// Series (vs. matrix order N, doubles, column-major):
//   V       - sub-matrix (vector type), expected ~94% of cudaMemcpy
//   T       - lower triangular (indexed), expected ~80%
//   T-stair - stair triangle with nb = 128 (1KB columns), recovers ~V
//   C       - cudaMemcpy D2D of the same payload (the practical peak)
#include "bench_common.h"

namespace gpuddt::bench {
namespace {

void BM_Fig6_V(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  auto dt = v_type(n);
  for (auto _ : state) {
    const double gbps =
        harness::kernel_pack_bandwidth(dt, 1, {}, bench_machine());
    record(state, static_cast<vt::Time>(dt->size() / gbps), dt->size());
  }
}
BENCHMARK(BM_Fig6_V)->Apply(matrix_sizes)->UseManualTime()->Iterations(2);

void BM_Fig6_T(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  auto dt = t_type(n);
  for (auto _ : state) {
    const double gbps =
        harness::kernel_pack_bandwidth(dt, 1, {}, bench_machine());
    record(state, static_cast<vt::Time>(dt->size() / gbps), dt->size());
  }
}
BENCHMARK(BM_Fig6_T)->Apply(matrix_sizes)->UseManualTime()->Iterations(2);

void BM_Fig6_T_stair(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  auto dt = core::stair_triangular_type(n, n, 128);
  for (auto _ : state) {
    const double gbps =
        harness::kernel_pack_bandwidth(dt, 1, {}, bench_machine());
    record(state, static_cast<vt::Time>(dt->size() / gbps), dt->size());
  }
}
BENCHMARK(BM_Fig6_T_stair)
    ->Apply(matrix_sizes)
    ->UseManualTime()
    ->Iterations(2);

void BM_Fig6_C_cudaMemcpy(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const std::int64_t bytes = n * (n / 2) * 8;  // V's payload
  for (auto _ : state) {
    const double gbps = harness::memcpy_d2d_bandwidth(bytes, bench_machine());
    record(state, static_cast<vt::Time>(bytes / gbps), bytes);
  }
}
BENCHMARK(BM_Fig6_C_cudaMemcpy)
    ->Apply(matrix_sizes)
    ->UseManualTime()
    ->Iterations(2);


// Bandwidths relative to C, the cudaMemcpy of V's payload.
const Claim kClaims[] = {
    {"Fig. 6: the V kernel reaches 88-100 % of cudaMemcpy at N 2048 and "
     "4096 (paper ~94 %)",
     [](const Results& r) {
       return holds_for({"/2048", "/4096"}, [&](const std::string& n) {
         const double v =
             r.gbps("BM_Fig6_V" + n) / r.gbps("BM_Fig6_C_cudaMemcpy" + n);
         return v > 0.88 && v < 1.0;
       });
     }},
    {"Fig. 6: the T kernel loses to occupancy, 70-90 % of cudaMemcpy "
     "(paper ~80 %)",
     [](const Results& r) {
       return holds_for({"/2048", "/4096"}, [&](const std::string& n) {
         const double t =
             r.gbps("BM_Fig6_T" + n) / r.gbps("BM_Fig6_C_cudaMemcpy" + n);
         return t > 0.70 && t < 0.90;
       });
     }},
    {"Fig. 6: the stair triangle beats T and recovers > 95 % of V",
     [](const Results& r) {
       return holds_for({"/2048", "/4096"}, [&](const std::string& n) {
         const double stair = r.gbps("BM_Fig6_T_stair" + n);
         return stair > r.gbps("BM_Fig6_T" + n) &&
                stair > 0.95 * r.gbps("BM_Fig6_V" + n);
       });
     }},
};

}  // namespace
}  // namespace gpuddt::bench

GPUDDT_BENCH_MAIN(kClaims);

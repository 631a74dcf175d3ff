// Figure 9: PCI-E bandwidth achieved by the full MPI ping-pong for vector
// and indexed datatypes, versus contiguous data of the same size.
//
// Two ranks on one node, different GPUs; all packed data crosses PCI-E.
// The paper reports ~90% (V) and ~78% (T) of the contiguous bandwidth.
#include "bench_common.h"

namespace gpuddt::bench {
namespace {

void run_pp(benchmark::State& state, const mpi::DatatypePtr& dt) {
  harness::PingPongSpec spec;
  spec.cfg = bench_pingpong_cfg();
  spec.dt0 = spec.dt1 = dt;
  for (auto _ : state) {
    const auto res = harness::run_pingpong(spec);
    // One-way payload per half round trip.
    record(state, res.avg_roundtrip / 2, res.message_bytes);
  }
}

void BM_Fig9_V(benchmark::State& state) { run_pp(state, v_type(state.range(0))); }
BENCHMARK(BM_Fig9_V)->Apply(matrix_sizes)->UseManualTime()->Iterations(1);

void BM_Fig9_T(benchmark::State& state) { run_pp(state, t_type(state.range(0))); }
BENCHMARK(BM_Fig9_T)->Apply(matrix_sizes)->UseManualTime()->Iterations(1);

void BM_Fig9_C(benchmark::State& state) {
  run_pp(state, c_type_of(v_type(state.range(0))));
}
BENCHMARK(BM_Fig9_C)->Apply(matrix_sizes)->UseManualTime()->Iterations(1);


const Claim kClaims[] = {
    {"Fig. 9: V reaches > 75 % of contiguous bandwidth at N 2048 and 4096 "
     "(paper ~90 %)",
     [](const Results& r) {
       return holds_for({"/2048", "/4096"}, [&](const std::string& n) {
         return r.gbps("BM_Fig9_V" + n) > 0.75 * r.gbps("BM_Fig9_C" + n);
       });
     }},
    {"Fig. 9: T <= 1.02 V and V < C; T reaches 55-95 % of C (paper ~78 %)",
     [](const Results& r) {
       return holds_for({"/2048", "/4096"}, [&](const std::string& n) {
         const double v = r.gbps("BM_Fig9_V" + n);
         const double t = r.gbps("BM_Fig9_T" + n);
         const double c = r.gbps("BM_Fig9_C" + n);
         return t <= 1.02 * v && v < c && t > 0.55 * c && t < 0.95 * c;
       });
     }},
};

}  // namespace
}  // namespace gpuddt::bench

GPUDDT_BENCH_MAIN(kClaims);

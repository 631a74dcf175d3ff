// Ablations of the design knobs DESIGN.md calls out:
//   * pipeline fragment size (the paper: "a reduction by nearly a factor
//     of 2 if the pipeline size is correctly tuned")
//   * pipeline depth (staging slots)
//   * work-unit size S (1KB / 2KB / 4KB, Section 3.2)
//   * DEV cache on/off
//   * zero-copy on/off for the copy-in/out protocol
#include "bench_common.h"

namespace gpuddt::bench {
namespace {

constexpr std::int64_t kN = 2048;

void BM_Pipeline_FragSize(benchmark::State& state) {
  harness::PingPongSpec spec;
  spec.cfg = bench_pingpong_cfg();
  spec.cfg.gpu_frag_bytes = static_cast<std::size_t>(state.range(0));
  spec.dt0 = spec.dt1 = t_type(kN);
  for (auto _ : state) {
    const auto res = harness::run_pingpong(spec);
    record(state, res.avg_roundtrip, res.message_bytes);
  }
}
BENCHMARK(BM_Pipeline_FragSize)
    ->Arg(16 << 10)
    ->Arg(64 << 10)
    ->Arg(256 << 10)
    ->Arg(512 << 10)
    ->Arg(1 << 20)
    ->UseManualTime()
    ->Iterations(1);

void BM_Pipeline_Depth(benchmark::State& state) {
  harness::PingPongSpec spec;
  spec.cfg = bench_pingpong_cfg();
  spec.cfg.gpu_pipeline_depth = static_cast<int>(state.range(0));
  spec.dt0 = spec.dt1 = t_type(kN);
  for (auto _ : state) {
    const auto res = harness::run_pingpong(spec);
    record(state, res.avg_roundtrip, res.message_bytes);
  }
}
BENCHMARK(BM_Pipeline_Depth)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseManualTime()
    ->Iterations(1);

void BM_UnitSize_S(benchmark::State& state) {
  harness::PackBenchSpec spec;
  spec.dt = t_type(kN);
  spec.machine = bench_machine();
  spec.engine.cache_enabled = false;
  spec.engine.unit_bytes = state.range(0);
  for (auto _ : state) {
    const auto res = harness::run_pack_bench(spec);
    record(state, res.avg_ns, res.bytes);
  }
}
BENCHMARK(BM_UnitSize_S)
    ->Arg(256)
    ->Arg(512)
    ->Arg(1024)
    ->Arg(2048)
    ->Arg(4096)
    ->UseManualTime()
    ->Iterations(2);

void BM_DevCache_OnOff(benchmark::State& state) {
  harness::PackBenchSpec spec;
  spec.dt = t_type(kN);
  spec.machine = bench_machine();
  spec.engine.cache_enabled = state.range(0) != 0;
  spec.warmup = spec.engine.cache_enabled ? 1 : 0;
  for (auto _ : state) {
    const auto res = harness::run_pack_bench(spec);
    record(state, res.avg_ns, res.bytes);
  }
}
BENCHMARK(BM_DevCache_OnOff)
    ->Arg(0)
    ->Arg(1)
    ->UseManualTime()
    ->Iterations(2);

void BM_ZeroCopy_OnOff(benchmark::State& state) {
  harness::PingPongSpec spec;
  spec.cfg = bench_pingpong_cfg();
  spec.cfg.ranks_per_node = 1;  // copy-in/out over IB
  spec.cfg.zero_copy = state.range(0) != 0;
  spec.dt0 = spec.dt1 = v_type(kN);
  for (auto _ : state) {
    const auto res = harness::run_pingpong(spec);
    record(state, res.avg_roundtrip, res.message_bytes);
  }
}
BENCHMARK(BM_ZeroCopy_OnOff)
    ->Arg(0)
    ->Arg(1)
    ->UseManualTime()
    ->Iterations(1);

void BM_RdmaPutVsGet(benchmark::State& state) {
  harness::PingPongSpec spec;
  spec.cfg = bench_pingpong_cfg();
  spec.cfg.rdma_put_mode = state.range(0) != 0;
  spec.dt0 = spec.dt1 = t_type(kN);
  for (auto _ : state) {
    const auto res = harness::run_pingpong(spec);
    record(state, res.avg_roundtrip, res.message_bytes);
  }
}
BENCHMARK(BM_RdmaPutVsGet)
    ->Arg(0)
    ->Arg(1)
    ->UseManualTime()
    ->Iterations(1);

void BM_IbRails(benchmark::State& state) {
  harness::PingPongSpec spec;
  spec.cfg = bench_pingpong_cfg();
  spec.cfg.ranks_per_node = 1;  // IB path
  spec.cfg.ib_rails = static_cast<int>(state.range(0));
  spec.dt0 = spec.dt1 = v_type(kN);
  for (auto _ : state) {
    const auto res = harness::run_pingpong(spec);
    record(state, res.avg_roundtrip, res.message_bytes);
  }
}
BENCHMARK(BM_IbRails)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseManualTime()
    ->Iterations(1);

void BM_ResidueStream_OnOff(benchmark::State& state) {
  harness::PackBenchSpec spec;
  spec.dt = t_type(kN);
  spec.machine = bench_machine();
  spec.engine.cache_enabled = false;
  spec.engine.residue_separate_stream = state.range(0) != 0;
  for (auto _ : state) {
    const auto res = harness::run_pack_bench(spec);
    record(state, res.avg_ns, res.bytes);
  }
}
BENCHMARK(BM_ResidueStream_OnOff)
    ->Arg(0)
    ->Arg(1)
    ->UseManualTime()
    ->Iterations(2);

void BM_RecvLocalStaging_OnOff(benchmark::State& state) {
  harness::PingPongSpec spec;
  spec.cfg = bench_pingpong_cfg();
  spec.cfg.recv_local_staging = state.range(0) != 0;
  spec.dt0 = spec.dt1 = t_type(kN);
  for (auto _ : state) {
    const auto res = harness::run_pingpong(spec);
    record(state, res.avg_roundtrip, res.message_bytes);
  }
}
BENCHMARK(BM_RecvLocalStaging_OnOff)
    ->Arg(0)
    ->Arg(1)
    ->UseManualTime()
    ->Iterations(1);


const Claim kClaims[] = {
    {"Fig. 10: receiver local staging takes 60-99 % of remote-read "
     "unpack's time (T 2048; paper: 10-20 % faster)",
     [](const Results& r) {
       const double staged = r.ns("BM_RecvLocalStaging_OnOff/1") /
                             r.ns("BM_RecvLocalStaging_OnOff/0");
       return staged > 0.60 && staged < 0.99;
     }},
    {"pipeline depth 1 is slower than depth 2",
     [](const Results& r) {
       return r.ns("BM_Pipeline_Depth/1") > r.ns("BM_Pipeline_Depth/2");
     }},
    {"work units of S = 4096 convert faster than S = 256",
     [](const Results& r) {
       return r.ns("BM_UnitSize_S/4096") < r.ns("BM_UnitSize_S/256");
     }},
    {"a separate residue stream is slower than treating residues alike "
     "(Sec. 3.2)",
     [](const Results& r) {
       return r.ns("BM_ResidueStream_OnOff/1") >
              r.ns("BM_ResidueStream_OnOff/0");
     }},
    {"the DEV cache on beats off",
     [](const Results& r) {
       return r.ns("BM_DevCache_OnOff/1") < r.ns("BM_DevCache_OnOff/0");
     }},
};

}  // namespace
}  // namespace gpuddt::bench

GPUDDT_BENCH_MAIN(kClaims);

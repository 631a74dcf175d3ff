// Figure 1: the four design alternatives for sending non-contiguous
// GPU-resident data, measured at the pack stage (the paper's motivation
// for choice (d), the GPU datatype engine):
//   (a) stage the whole extent (gaps included) to host + CPU pack
//   (b) one cudaMemcpy D2H per contiguous block
//   (c) one cudaMemcpy D2D per contiguous block
//   (d) GPU pack kernel into a device buffer
#include "bench_common.h"

#include "baselines/alternatives.h"

namespace gpuddt::bench {
namespace {

struct AltSetup {
  sg::Machine machine{bench_machine()};
  sg::HostContext ctx{machine, 0};
  mpi::DatatypePtr dt;
  std::int64_t total, span;
  std::byte* dev_src;
  std::byte* dev_packed;
  std::byte* host_scratch;
  std::byte* host_packed;

  AltSetup(const mpi::DatatypePtr& d) : dt(d) {
    total = dt->size();
    span = dt->true_extent() + 64;
    dev_src = static_cast<std::byte*>(sg::Malloc(ctx, span));
    dev_packed = static_cast<std::byte*>(sg::Malloc(ctx, total));
    host_scratch = static_cast<std::byte*>(
        sg::HostAlloc(ctx, static_cast<std::size_t>(span), false));
    host_packed = static_cast<std::byte*>(
        sg::HostAlloc(ctx, static_cast<std::size_t>(total), false));
  }
  std::byte* base() { return dev_src - dt->true_lb(); }
};

void BM_Fig1a_StageWhole(benchmark::State& state) {
  AltSetup s(t_type(state.range(0)));
  for (auto _ : state) {
    const auto out = base::pack_stage_whole(s.ctx, s.dt, 1, s.base(),
                                            s.host_scratch, s.host_packed);
    record(state, out.elapsed, s.total);
  }
}
BENCHMARK(BM_Fig1a_StageWhole)
    ->Apply(small_matrix_sizes)
    ->UseManualTime()
    ->Iterations(1);

void BM_Fig1b_PerBlockD2H(benchmark::State& state) {
  AltSetup s(t_type(state.range(0)));
  for (auto _ : state) {
    const auto out =
        base::pack_per_block_d2h(s.ctx, s.dt, 1, s.base(), s.host_packed);
    record(state, out.elapsed, s.total);
  }
}
BENCHMARK(BM_Fig1b_PerBlockD2H)
    ->Apply(small_matrix_sizes)
    ->UseManualTime()
    ->Iterations(1);

void BM_Fig1c_PerBlockD2D(benchmark::State& state) {
  AltSetup s(t_type(state.range(0)));
  for (auto _ : state) {
    const auto out =
        base::pack_per_block_d2d(s.ctx, s.dt, 1, s.base(), s.dev_packed);
    record(state, out.elapsed, s.total);
  }
}
BENCHMARK(BM_Fig1c_PerBlockD2D)
    ->Apply(small_matrix_sizes)
    ->UseManualTime()
    ->Iterations(1);

void BM_Fig1d_GpuKernel(benchmark::State& state) {
  AltSetup s(t_type(state.range(0)));
  core::GpuDatatypeEngine eng(s.ctx);
  for (auto _ : state) {
    const auto out =
        base::pack_gpu_kernel(eng, s.dt, 1, s.base(), s.dev_packed);
    record(state, out.elapsed, s.total);
  }
}
BENCHMARK(BM_Fig1d_GpuKernel)
    ->Apply(small_matrix_sizes)
    ->UseManualTime()
    ->Iterations(1);

// The same four strategies on the vector layout, where the gap ratio is
// smaller and alternative (a) looks comparatively better.
void BM_Fig1a_StageWhole_V(benchmark::State& state) {
  AltSetup s(v_type(state.range(0)));
  for (auto _ : state) {
    const auto out = base::pack_stage_whole(s.ctx, s.dt, 1, s.base(),
                                            s.host_scratch, s.host_packed);
    record(state, out.elapsed, s.total);
  }
}
BENCHMARK(BM_Fig1a_StageWhole_V)
    ->Apply(small_matrix_sizes)
    ->UseManualTime()
    ->Iterations(1);

void BM_Fig1d_GpuKernel_V(benchmark::State& state) {
  AltSetup s(v_type(state.range(0)));
  core::GpuDatatypeEngine eng(s.ctx);
  for (auto _ : state) {
    const auto out =
        base::pack_gpu_kernel(eng, s.dt, 1, s.base(), s.dev_packed);
    record(state, out.elapsed, s.total);
  }
}
BENCHMARK(BM_Fig1d_GpuKernel_V)
    ->Apply(small_matrix_sizes)
    ->UseManualTime()
    ->Iterations(1);


const Claim kClaims[] = {
    {"Fig. 1: (d) the GPU kernel packs T faster than (a), (b) and (c) at "
     "N 1024 and 2048",
     [](const Results& r) {
       return holds_for({"/1024", "/2048"}, [&](const std::string& n) {
         const double d = r.ns("BM_Fig1d_GpuKernel" + n);
         return d < r.ns("BM_Fig1a_StageWhole" + n) &&
                d < r.ns("BM_Fig1b_PerBlockD2H" + n) &&
                d < r.ns("BM_Fig1c_PerBlockD2D" + n);
       });
     }},
};

}  // namespace
}  // namespace gpuddt::bench

GPUDDT_BENCH_MAIN(kClaims);

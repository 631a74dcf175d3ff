// Figure 8: vector pack/unpack kernel vs. cudaMemcpy2D.
//
// Arguments: {number of blocks (1K or 8K), block size in bytes}.
// Series:
//   kernel-d2d    our pack kernel into a device buffer
//   kernel-d2d2h  kernel + explicit D2H
//   kernel-d2h    kernel straight into zero-copy mapped host memory
//   mcp2d-d2d     cudaMemcpy2D device-to-device
//   mcp2d-d2d2h   cudaMemcpy2D d2d + bulk D2H
//   mcp2d-d2h     cudaMemcpy2D device-to-host
// The 2D copy regresses whenever the block size is off the 64-byte
// granule; the kernel does not.
#include "bench_common.h"

#include "core/kernels.h"

namespace gpuddt::bench {
namespace {

void block_sweep(benchmark::internal::Benchmark* b) {
  for (std::int64_t nblocks : {1024, 8192}) {
    for (std::int64_t bs : {64, 120, 128, 448, 512, 1000, 1024, 4096}) {
      b->Args({nblocks, bs});
    }
  }
}

struct Fig8Setup {
  sg::Machine machine{bench_machine()};
  sg::HostContext ctx{machine, 0};
  sg::Stream stream{&machine.device(0)};
  std::int64_t nblocks, bs, pitch, total;
  std::byte* src;
  std::byte* dev_dst;
  std::byte* host_dst;

  Fig8Setup(benchmark::State& state, bool mapped_host)
      : nblocks(state.range(0)),
        bs(state.range(1)),
        pitch((bs + 127) / 128 * 128 + 128),
        total(nblocks * bs) {
    src = static_cast<std::byte*>(sg::Malloc(ctx, nblocks * pitch));
    dev_dst = static_cast<std::byte*>(sg::Malloc(ctx, total));
    host_dst = static_cast<std::byte*>(
        sg::HostAlloc(ctx, static_cast<std::size_t>(total), mapped_host));
  }

  mpi::RegularPattern pattern() const { return {0, bs, pitch, nblocks}; }
};

void BM_Fig8_kernel_d2d(benchmark::State& state) {
  Fig8Setup s(state, false);
  for (auto _ : state) {
    const vt::Time t0 = s.ctx.clock.now();
    const vt::Time fin = core::pack_vector_kernel(
        s.ctx, s.stream, s.src, s.pattern(), 0, s.total, s.dev_dst, 64);
    record(state, fin - t0, s.total);
    s.ctx.clock.wait_until(fin);  // drain before the next iteration
  }
}
BENCHMARK(BM_Fig8_kernel_d2d)
    ->Apply(block_sweep)
    ->UseManualTime()
    ->Iterations(2);

void BM_Fig8_kernel_d2d2h(benchmark::State& state) {
  Fig8Setup s(state, false);
  for (auto _ : state) {
    const vt::Time t0 = s.ctx.clock.now();
    core::pack_vector_kernel(s.ctx, s.stream, s.src, s.pattern(), 0, s.total,
                             s.dev_dst, 64);
    const vt::Time fin =
        sg::MemcpyAsync(s.ctx, s.host_dst, s.dev_dst,
                        static_cast<std::size_t>(s.total), s.stream);
    record(state, fin - t0, s.total);
    s.ctx.clock.wait_until(fin);
  }
}
BENCHMARK(BM_Fig8_kernel_d2d2h)
    ->Apply(block_sweep)
    ->UseManualTime()
    ->Iterations(2);

void BM_Fig8_kernel_d2h_zero_copy(benchmark::State& state) {
  Fig8Setup s(state, true);
  for (auto _ : state) {
    const vt::Time t0 = s.ctx.clock.now();
    const vt::Time fin = core::pack_vector_kernel(
        s.ctx, s.stream, s.src, s.pattern(), 0, s.total, s.host_dst, 64);
    record(state, fin - t0, s.total);
    s.ctx.clock.wait_until(fin);
  }
}
BENCHMARK(BM_Fig8_kernel_d2h_zero_copy)
    ->Apply(block_sweep)
    ->UseManualTime()
    ->Iterations(2);

void BM_Fig8_mcp2d_d2d(benchmark::State& state) {
  Fig8Setup s(state, false);
  for (auto _ : state) {
    const vt::Time t0 = s.ctx.clock.now();
    sg::Memcpy2D(s.ctx, s.dev_dst, static_cast<std::size_t>(s.bs), s.src,
                 static_cast<std::size_t>(s.pitch),
                 static_cast<std::size_t>(s.bs),
                 static_cast<std::size_t>(s.nblocks));
    record(state, s.ctx.clock.now() - t0, s.total);
  }
}
BENCHMARK(BM_Fig8_mcp2d_d2d)
    ->Apply(block_sweep)
    ->UseManualTime()
    ->Iterations(2);

void BM_Fig8_mcp2d_d2d2h(benchmark::State& state) {
  Fig8Setup s(state, false);
  for (auto _ : state) {
    const vt::Time t0 = s.ctx.clock.now();
    sg::Memcpy2D(s.ctx, s.dev_dst, static_cast<std::size_t>(s.bs), s.src,
                 static_cast<std::size_t>(s.pitch),
                 static_cast<std::size_t>(s.bs),
                 static_cast<std::size_t>(s.nblocks));
    sg::Memcpy(s.ctx, s.host_dst, s.dev_dst,
               static_cast<std::size_t>(s.total));
    record(state, s.ctx.clock.now() - t0, s.total);
  }
}
BENCHMARK(BM_Fig8_mcp2d_d2d2h)
    ->Apply(block_sweep)
    ->UseManualTime()
    ->Iterations(2);

void BM_Fig8_mcp2d_d2h(benchmark::State& state) {
  Fig8Setup s(state, false);
  for (auto _ : state) {
    const vt::Time t0 = s.ctx.clock.now();
    sg::Memcpy2D(s.ctx, s.host_dst, static_cast<std::size_t>(s.bs), s.src,
                 static_cast<std::size_t>(s.pitch),
                 static_cast<std::size_t>(s.bs),
                 static_cast<std::size_t>(s.nblocks));
    record(state, s.ctx.clock.now() - t0, s.total);
  }
}
BENCHMARK(BM_Fig8_mcp2d_d2h)
    ->Apply(block_sweep)
    ->UseManualTime()
    ->Iterations(2);


const Claim kClaims[] = {
    {"Fig. 8: on the device the kernel matches cudaMemcpy2D: kernel-d2d "
     "takes 70-130 % of mcp2d-d2d's time at 1024 B blocks",
     [](const Results& r) {
       const double k = r.ns("BM_Fig8_kernel_d2d/8192/1024") /
                        r.ns("BM_Fig8_mcp2d_d2d/8192/1024");
       return k > 0.7 && k < 1.3;
     }},
    {"Fig. 8: cudaMemcpy2D d2h regresses off the granule: 1000 B blocks "
     "take > 1.8x as long as 1024 B blocks",
     [](const Results& r) {
       return r.ns("BM_Fig8_mcp2d_d2h/8192/1000") >
              1.8 * r.ns("BM_Fig8_mcp2d_d2h/8192/1024");
     }},
};

}  // namespace
}  // namespace gpuddt::bench

GPUDDT_BENCH_MAIN(kClaims);

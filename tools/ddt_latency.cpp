// ddt_latency: OSU-microbenchmark-style latency/bandwidth sweep for GPU
// derived datatypes - the everyday tool a user of this library would run
// first. For each message size, reports the one-way latency and bandwidth
// of a device-to-device ping-pong with three layouts (contiguous, vector,
// triangular-indexed) on the chosen topology.
//
//   $ ./ddt_latency            # intra-node, two GPUs
//   $ ./ddt_latency --ib       # two nodes over InfiniBand
//   $ ./ddt_latency --1gpu     # both ranks on one GPU
#include <cstdio>
#include <cstring>
#include <string>

#include "core/layouts.h"
#include "harness/harness.h"
#include "mpi/datatype.h"

using namespace gpuddt;

namespace {

mpi::DatatypePtr layout_for(const std::string& kind, std::int64_t bytes) {
  const std::int64_t elems = bytes / 8;
  if (kind == "contiguous")
    return mpi::Datatype::contiguous(elems, mpi::kDouble());
  if (kind == "vector") {
    // Square-ish factorization, stride 2x blocklen.
    std::int64_t bl = 1;
    while (bl * bl < elems) bl <<= 1;
    const std::int64_t count = (elems + bl - 1) / bl;
    return mpi::Datatype::vector(count, bl, 2 * bl, mpi::kDouble());
  }
  // triangular of the order whose triangle is closest to `elems`
  std::int64_t n = 2;
  while (core::lower_triangle_elems(n + 1) <= elems) ++n;
  return core::lower_triangular_type(n, n);
}

}  // namespace

int main(int argc, char** argv) {
  bool ib = false, one_gpu = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--ib") == 0) ib = true;
    if (std::strcmp(argv[i], "--1gpu") == 0) one_gpu = true;
  }

  std::printf("# gpuddt datatype latency/bandwidth (%s)\n",
              ib ? "inter-node IB" : one_gpu ? "one GPU" : "two GPUs, SM");
  std::printf("%-12s %-12s %14s %12s\n", "layout", "size", "latency(us)",
              "BW(GB/s)");

  for (const char* kind : {"contiguous", "vector", "triangular"}) {
    for (std::int64_t bytes = 1024; bytes <= (64 << 20); bytes *= 4) {
      harness::PingPongSpec spec;
      spec.cfg.world_size = 2;
      spec.cfg.machine.num_devices = 2;
      spec.cfg.machine.device_memory_bytes = std::size_t{2} << 30;
      if (ib) spec.cfg.ranks_per_node = 1;
      if (one_gpu) spec.cfg.device_of = [](int) { return 0; };
      spec.dt0 = spec.dt1 = layout_for(kind, bytes);
      spec.iters = 3;
      const auto res = harness::run_pingpong(spec);
      std::printf("%-12s %-12lld %14.2f %12.2f\n", kind,
                  static_cast<long long>(res.message_bytes),
                  static_cast<double>(res.avg_roundtrip) / 2e3,
                  res.bandwidth_gbps());
    }
    std::printf("\n");
  }
  return 0;
}

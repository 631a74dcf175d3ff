// Stress and failure-injection tests: many ranks across nodes, concurrent
// mixed host/device traffic, repeated runtimes, determinism of the
// virtual-time harness, truncation errors, signature overflow, and other
// paths the happy-path tests never reach.
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <vector>

#include "core/layouts.h"
#include "harness/harness.h"
#include "mpi/coll.h"
#include "mpi/runtime.h"
#include "protocols/gpu_plugin.h"
#include "test_helpers.h"

namespace gpuddt {
namespace {

using mpi::Comm;
using mpi::Process;
using mpi::Runtime;
using mpi::RuntimeConfig;

RuntimeConfig stress_world(int ranks, int per_node) {
  RuntimeConfig cfg;
  cfg.world_size = ranks;
  cfg.ranks_per_node = per_node;
  cfg.machine.num_devices = 2;
  cfg.machine.device_memory_bytes = 512u << 20;
  return cfg;
}

TEST(Stress, SixRanksThreeNodesMixedTraffic) {
  Runtime rt(stress_world(6, 2));
  rt.set_gpu_plugin(std::make_shared<proto::GpuDatatypePlugin>());
  rt.run([](Process& p) {
    Comm comm(p);
    std::mt19937 rng(p.rank() * 31 + 5);
    // Everyone exchanges a device triangular matrix with everyone.
    const std::int64_t n = 64;
    auto dt = core::lower_triangular_type(n, n);
    const std::size_t span = static_cast<std::size_t>(n * n * 8);
    std::vector<std::byte*> out(static_cast<std::size_t>(p.size()));
    std::vector<std::byte*> in(static_cast<std::size_t>(p.size()));
    std::vector<mpi::Request> reqs;
    for (int r = 0; r < p.size(); ++r) {
      if (r == p.rank()) continue;
      out[r] = static_cast<std::byte*>(sg::Malloc(p.gpu(), span));
      in[r] = static_cast<std::byte*>(sg::Malloc(p.gpu(), span));
      test::fill_pattern(out[r], span,
                         static_cast<std::uint32_t>(p.rank() * 100 + r));
      std::memset(in[r], 0, span);
      reqs.push_back(comm.irecv(in[r], 1, dt, r, p.rank()));
      reqs.push_back(comm.isend(out[r], 1, dt, r, r));
    }
    comm.waitall(reqs);
    for (int r = 0; r < p.size(); ++r) {
      if (r == p.rank()) continue;
      std::vector<std::byte> expect(span);
      test::fill_pattern(expect.data(), span,
                         static_cast<std::uint32_t>(r * 100 + p.rank()));
      EXPECT_EQ(test::reference_pack(dt, 1, in[r]),
                test::reference_pack(dt, 1, expect.data()))
          << "pair " << p.rank() << "<-" << r;
    }
  });
}

TEST(Stress, ManySmallMessagesPreserveOrder) {
  Runtime rt(stress_world(2, 1 << 30));
  rt.run([](Process& p) {
    Comm comm(p);
    constexpr int kMsgs = 500;
    if (p.rank() == 0) {
      for (int i = 0; i < kMsgs; ++i) {
        comm.send(&i, 1, mpi::kInt32(), 1, /*tag=*/7);
      }
    } else {
      for (int i = 0; i < kMsgs; ++i) {
        int v = -1;
        comm.recv(&v, 1, mpi::kInt32(), 0, 7);
        EXPECT_EQ(v, i);  // same (src, tag): non-overtaking
      }
    }
  });
}

TEST(Stress, InterleavedTagsMatchCorrectly) {
  Runtime rt(stress_world(2, 1 << 30));
  rt.run([](Process& p) {
    Comm comm(p);
    constexpr int kEach = 50;
    if (p.rank() == 0) {
      // Interleave two tag streams.
      for (int i = 0; i < kEach; ++i) {
        const int a = i, b = 1000 + i;
        comm.send(&a, 1, mpi::kInt32(), 1, 1);
        comm.send(&b, 1, mpi::kInt32(), 1, 2);
      }
    } else {
      // Drain tag 2 first, then tag 1.
      for (int i = 0; i < kEach; ++i) {
        int v = -1;
        comm.recv(&v, 1, mpi::kInt32(), 0, 2);
        EXPECT_EQ(v, 1000 + i);
      }
      for (int i = 0; i < kEach; ++i) {
        int v = -1;
        comm.recv(&v, 1, mpi::kInt32(), 0, 1);
        EXPECT_EQ(v, i);
      }
    }
  });
}

TEST(Stress, RepeatedGpuTransfersStayStable) {
  Runtime rt(stress_world(2, 1 << 30));
  rt.set_gpu_plugin(std::make_shared<proto::GpuDatatypePlugin>());
  rt.run([](Process& p) {
    Comm comm(p);
    auto dt = core::submatrix_type(128, 32, 192);
    const std::size_t span = 192 * 32 * 8;
    auto* buf = static_cast<std::byte*>(sg::Malloc(p.gpu(), span));
    for (int iter = 0; iter < 30; ++iter) {
      if (p.rank() == 0) {
        test::fill_pattern(buf, span, static_cast<std::uint32_t>(iter));
        comm.send(buf, 1, dt, 1, iter);
      } else {
        comm.recv(buf, 1, dt, 0, iter);
        std::vector<std::byte> expect(span);
        test::fill_pattern(expect.data(), span,
                           static_cast<std::uint32_t>(iter));
        ASSERT_EQ(test::reference_pack(dt, 1, buf),
                  test::reference_pack(dt, 1, expect.data()))
            << "iter " << iter;
      }
    }
  });
}

// Every plugin mode releases its staging rings and descriptor scratch
// with its requests: each mode runs four transfers of one shape, and
// neither rank's device arena may grow after the second (the first
// DEV-cache hit uploads the cached device copy, which then persists).
TEST(Stress, DeviceMemoryIsReleasedAfterTransfers) {
  struct Mode {
    const char* name;
    const char* counter;  // proves the intended path ran
    void (*setup)(RuntimeConfig&);
    bool contiguous_send = false;
    bool contiguous_recv = false;
    std::int64_t order = 128;  // of the lower-triangular shape
  };
  const std::vector<Mode> modes = {
      {"GPU eager", "gpu.sends.eager", nullptr, false, false, 32},
      {"copy-in/out, zero-copy", "gpu.mode.host_frags",
       [](RuntimeConfig& c) { c.ranks_per_node = 1; }},
      {"copy-in/out, explicit staging", "gpu.mode.host_frags",
       [](RuntimeConfig& c) {
         c.ranks_per_node = 1;
         c.zero_copy = false;
       }},
      {"GET, local staging", "gpu.mode.ipc_rdma", nullptr},
      {"GET, remote read", "gpu.mode.ipc_rdma",
       [](RuntimeConfig& c) { c.recv_local_staging = false; }},
      {"PUT", "gpu.mode.ipc_rdma",
       [](RuntimeConfig& c) { c.rdma_put_mode = true; }},
      {"receiver-driven, contiguous", "gpu.mode.rdma_recv_driven", nullptr,
       true, true},
      {"receiver-driven, pipelined", "gpu.mode.rdma_recv_driven", nullptr,
       true, false},
      {"pack-to-remote", "gpu.mode.rdma_pack_remote", nullptr, false, true},
      {"stream-triggered, staged", "gpu.mode.stream_triggered",
       [](RuntimeConfig& c) { c.stream_triggered = 1; }},
      {"stream-triggered, one device", "gpu.mode.stream_triggered",
       [](RuntimeConfig& c) {
         c.stream_triggered = 1;
         c.device_of = [](int) { return 0; };
       }},
      {"stream-triggered, PUT fallback", "pml.stream_triggered.fallbacks",
       [](RuntimeConfig& c) {
         c.stream_triggered = 1;
         c.rdma_put_mode = true;
       }},
  };
  for (const Mode& m : modes) {
    SCOPED_TRACE(m.name);
    obs::Recorder rec;
    RuntimeConfig cfg = stress_world(2, 1 << 30);
    cfg.recorder = &rec;
    if (m.setup) m.setup(cfg);
    Runtime rt(cfg);
    rt.set_gpu_plugin(std::make_shared<proto::GpuDatatypePlugin>());
    rt.run([&](Process& p) {
      Comm comm(p);
      const auto tri = core::lower_triangular_type(m.order, m.order);
      const bool contiguous =
          p.rank() == 0 ? m.contiguous_send : m.contiguous_recv;
      const mpi::DatatypePtr dt = contiguous ? mpi::kDouble() : tri;
      const std::int64_t count = contiguous ? tri->size() / 8 : 1;
      const auto span = static_cast<std::size_t>(m.order * m.order * 8);
      auto* buf = static_cast<std::byte*>(sg::Malloc(p.gpu(), span));
      std::size_t after_second = 0;
      for (int i = 0; i < 4; ++i) {
        if (p.rank() == 0) {
          comm.send(buf, count, dt, 1, i);
        } else {
          comm.recv(buf, count, dt, 0, i);
        }
        comm.barrier();
        const std::size_t in_use = p.gpu().dev().arena().bytes_in_use();
        if (i == 1) after_second = in_use;
        if (i > 1) {
          EXPECT_EQ(in_use, after_second)
              << "rank " << p.rank() << ", transfer " << i;
        }
      }
    });
    EXPECT_GE(test::counter(rec, m.counter), 4) << m.counter;
  }
}

TEST(Stress, TruncatingRendezvousThrows) {
  Runtime rt(stress_world(2, 1 << 30));
  EXPECT_THROW(
      rt.run([](Process& p) {
        Comm comm(p);
        std::vector<std::byte> big(1 << 20), small(1 << 10);
        if (p.rank() == 0) {
          comm.send(big.data(), 1 << 20, mpi::kByte(), 1, 0);
        } else {
          comm.recv(small.data(), 1 << 10, mpi::kByte(), 0, 0);
        }
      }),
      std::runtime_error);
}

TEST(Stress, HarnessIsDeterministic) {
  // Identical specs must produce identical virtual times: ranks run one
  // at a time in a fixed order, so virtual time is independent of host
  // scheduling.
  harness::PingPongSpec spec;
  spec.cfg = stress_world(2, 1 << 30);
  spec.dt0 = spec.dt1 = core::lower_triangular_type(512, 512);
  const auto a = harness::run_pingpong(spec);
  const auto b = harness::run_pingpong(spec);
  EXPECT_EQ(a.avg_roundtrip, b.avg_roundtrip);
}

TEST(Stress, SignatureOverflowStaysSound) {
  // A struct alternating primitives beyond the RLE cap exercises the
  // overflow-hash path; equal constructions still compare equal and
  // unequal ones differ.
  auto build = [](int runs, mpi::Primitive extra) {
    std::vector<std::int64_t> lens, displs;
    std::vector<mpi::DatatypePtr> types;
    std::int64_t at = 0;
    for (int i = 0; i < runs; ++i) {
      lens.push_back(1);
      displs.push_back(at);
      types.push_back(i % 2 ? mpi::kInt32() : mpi::kDouble());
      at += 16;
    }
    lens.push_back(1);
    displs.push_back(at);
    types.push_back(mpi::Datatype::primitive(extra));
    return mpi::Datatype::struct_type(lens, displs, types);
  };
  auto a = build(100, mpi::Primitive::kFloat);
  auto b = build(100, mpi::Primitive::kFloat);
  auto c = build(100, mpi::Primitive::kInt64);
  EXPECT_NE(a->signature().overflow_hash, 0u);
  EXPECT_EQ(a->signature(), b->signature());
  EXPECT_NE(a->signature().hash(), c->signature().hash());
}

TEST(Stress, PackUnpackRoundTripsOverflowType) {
  // The >cap struct must still move correctly end to end.
  std::vector<std::int64_t> lens, displs;
  std::vector<mpi::DatatypePtr> types;
  std::int64_t at = 0;
  for (int i = 0; i < 80; ++i) {
    lens.push_back(1 + i % 3);
    displs.push_back(at);
    types.push_back(i % 2 ? mpi::kInt32() : mpi::kDouble());
    at += 8 * (1 + i % 3) + 8;
  }
  auto dt = mpi::Datatype::struct_type(lens, displs, types);
  const std::int64_t span = test::span_bytes(dt, 1);
  std::vector<std::byte> src(static_cast<std::size_t>(span)),
      dst(static_cast<std::size_t>(span), std::byte{0});
  test::fill_pattern(src.data(), src.size(), 2);
  auto packed = test::reference_pack(dt, 1, src.data());
  mpi::cpu_unpack(dt, 1, packed, dst.data());
  EXPECT_EQ(test::reference_pack(dt, 1, dst.data()), packed);
}

TEST(Stress, ConcurrentEnginesOnSeparateRanks) {
  // Two ranks hammer their engines simultaneously on the same device:
  // SM-capacity contention must not corrupt results.
  RuntimeConfig cfg = stress_world(4, 1 << 30);
  cfg.device_of = [](int) { return 0; };  // everyone on GPU 0
  Runtime rt(cfg);
  rt.set_gpu_plugin(std::make_shared<proto::GpuDatatypePlugin>());
  rt.run([](Process& p) {
    Comm comm(p);
    auto dt = core::lower_triangular_type(96, 96);
    const std::size_t span = 96 * 96 * 8;
    auto* buf = static_cast<std::byte*>(sg::Malloc(p.gpu(), span));
    const int peer = p.rank() ^ 1;
    test::fill_pattern(buf, span, static_cast<std::uint32_t>(p.rank()));
    mpi::Request r[2];
    std::vector<std::byte> in(span, std::byte{0});
    auto* dev_in = static_cast<std::byte*>(sg::Malloc(p.gpu(), span));
    std::memset(dev_in, 0, span);
    r[0] = comm.irecv(dev_in, 1, dt, peer, 0);
    r[1] = comm.isend(buf, 1, dt, peer, 0);
    comm.wait(r[0]);
    comm.wait(r[1]);
    std::vector<std::byte> expect(span);
    test::fill_pattern(expect.data(), span,
                       static_cast<std::uint32_t>(peer));
    EXPECT_EQ(test::reference_pack(dt, 1, dev_in),
              test::reference_pack(dt, 1, expect.data()));
  });
}

TEST(Stress, MultiRailIbSpeedsUpLargeTransfers) {
  // Two rails roughly double aggregate IB bandwidth for the pipelined
  // fragment stream; correctness is unchanged.
  auto run_with_rails = [](int rails) {
    harness::PingPongSpec spec;
    spec.cfg = stress_world(2, 1);  // two nodes: IB path
    spec.cfg.ib_rails = rails;
    spec.dt0 = spec.dt1 = core::submatrix_type(2048, 1024, 2048 + 512);
    return harness::run_pingpong(spec);
  };
  const auto one = run_with_rails(1);
  const auto two = run_with_rails(2);
  EXPECT_LT(static_cast<double>(two.avg_roundtrip),
            0.70 * static_cast<double>(one.avg_roundtrip));
  const auto four = run_with_rails(4);
  EXPECT_LE(four.avg_roundtrip, two.avg_roundtrip);
}

TEST(Stress, MultiRailPreservesCorrectness) {
  RuntimeConfig cfg = stress_world(2, 1);
  cfg.ib_rails = 3;
  Runtime rt(cfg);
  rt.set_gpu_plugin(std::make_shared<proto::GpuDatatypePlugin>());
  rt.run([](Process& p) {
    Comm comm(p);
    auto dt = core::lower_triangular_type(512, 512);
    const std::size_t span = 512 * 512 * 8;
    auto* buf = static_cast<std::byte*>(sg::Malloc(p.gpu(), span));
    if (p.rank() == 0) {
      test::fill_pattern(buf, span, 123);
      comm.send(buf, 1, dt, 1, 0);
    } else {
      comm.recv(buf, 1, dt, 0, 0);
      std::vector<std::byte> expect(span);
      test::fill_pattern(expect.data(), span, 123);
      EXPECT_EQ(test::reference_pack(dt, 1, buf),
                test::reference_pack(dt, 1, expect.data()));
    }
  });
}

TEST(Stress, WideWorldBarrierStorm) {
  Runtime rt(stress_world(8, 3));  // uneven node packing
  rt.run([](Process& p) {
    Comm comm(p);
    for (int i = 0; i < 20; ++i) comm.barrier();
    EXPECT_GT(p.clock().now(), 0);
  });
}

}  // namespace
}  // namespace gpuddt

namespace gpuddt {
namespace {

TEST(Stress, SixGpusLikeThePaperNode) {
  // The paper's PSG nodes carry 6 K40s; six ranks, one per device,
  // all-pairs triangular traffic.
  RuntimeConfig cfg;
  cfg.world_size = 6;
  cfg.machine.num_devices = 6;
  cfg.machine.device_memory_bytes = 256u << 20;
  Runtime rt(cfg);
  rt.set_gpu_plugin(std::make_shared<proto::GpuDatatypePlugin>());
  rt.run([](Process& p) {
    EXPECT_EQ(p.gpu().device, p.rank());  // one rank per GPU
    Comm comm(p);
    auto dt = core::lower_triangular_type(96, 96);
    const std::size_t span = 96 * 96 * 8;
    auto* out = static_cast<std::byte*>(sg::Malloc(p.gpu(), span));
    auto* in = static_cast<std::byte*>(sg::Malloc(p.gpu(), span));
    test::fill_pattern(out, span, static_cast<std::uint32_t>(p.rank()));
    const int peer = (p.rank() + 3) % 6;  // pair distant devices
    mpi::Request r = comm.irecv(in, 1, dt, peer, 0);
    mpi::Request s = comm.isend(out, 1, dt, peer, 0);
    comm.wait(r);
    comm.wait(s);
    std::vector<std::byte> expect(span);
    test::fill_pattern(expect.data(), span,
                       static_cast<std::uint32_t>(peer));
    EXPECT_EQ(test::reference_pack(dt, 1, in),
              test::reference_pack(dt, 1, expect.data()));
  });
}

TEST(Stress, OddRanksPerNodeTopology) {
  // 5 ranks over nodes of 2: nodes {0,1},{2,3},{4}; mixed SM/IB paths in
  // one collective.
  RuntimeConfig cfg = stress_world(5, 2);
  Runtime rt(cfg);
  rt.run([](Process& p) {
    mpi::Collectives coll(Comm{p});
    std::int64_t v = 1;
    std::int64_t sum = 0;
    coll.allreduce(&v, &sum, 1, mpi::kInt64(), mpi::ReduceOp::kSum);
    EXPECT_EQ(sum, 5);
  });
}

}  // namespace
}  // namespace gpuddt

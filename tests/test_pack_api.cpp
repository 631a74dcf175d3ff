// The explicit MPI_Pack/MPI_Unpack-style API on the GPU plugin, plus the
// GPUDirect RDMA small-message crossover policy.
#include <gtest/gtest.h>

#include <cstring>

#include "core/layouts.h"
#include "mpi/btl.h"
#include "mpi/runtime.h"
#include "protocols/gpu_plugin.h"
#include "test_helpers.h"

namespace gpuddt::proto {
namespace {

mpi::RuntimeConfig cfg2() {
  mpi::RuntimeConfig cfg;
  cfg.world_size = 2;
  cfg.machine.num_devices = 2;
  cfg.machine.device_memory_bytes = 256u << 20;
  return cfg;
}

TEST(PackApi, PacksHostBuffer) {
  mpi::Runtime rt(cfg2());
  auto plugin = std::make_shared<GpuDatatypePlugin>();
  rt.set_gpu_plugin(plugin);
  rt.run([&](mpi::Process& p) {
    if (p.rank() != 0) return;
    auto dt = mpi::Datatype::vector(8, 2, 4, mpi::kInt32());
    std::vector<std::int32_t> src(8 * 4);
    for (std::size_t i = 0; i < src.size(); ++i)
      src[i] = static_cast<std::int32_t>(i);
    std::vector<std::byte> out(dt->size() + 16);
    std::int64_t pos = 4;  // pack at an offset, MPI_Pack style
    plugin->pack(p, src.data(), 1, dt, out, &pos);
    EXPECT_EQ(pos, 4 + dt->size());
    const auto ref = test::reference_pack(dt, 1, src.data());
    EXPECT_EQ(std::memcmp(out.data() + 4, ref.data(), ref.size()), 0);
  });
}

TEST(PackApi, PacksDeviceBufferWithEngine) {
  mpi::Runtime rt(cfg2());
  auto plugin = std::make_shared<GpuDatatypePlugin>();
  rt.set_gpu_plugin(plugin);
  rt.run([&](mpi::Process& p) {
    if (p.rank() != 0) return;
    const std::int64_t n = 64;
    auto dt = core::lower_triangular_type(n, n);
    auto* src = static_cast<std::byte*>(
        sg::Malloc(p.gpu(), static_cast<std::size_t>(n * n * 8)));
    test::fill_pattern(src, static_cast<std::size_t>(n * n * 8), 12);
    auto* out = static_cast<std::byte*>(
        sg::Malloc(p.gpu(), static_cast<std::size_t>(dt->size())));
    std::int64_t pos = 0;
    const vt::Time t0 = p.clock().now();
    plugin->pack(p, src, 1, dt,
                 std::span<std::byte>(out, static_cast<std::size_t>(dt->size())),
                 &pos);
    EXPECT_GT(p.clock().now(), t0);  // engine time charged
    const auto ref = test::reference_pack(dt, 1, src);
    EXPECT_EQ(std::memcmp(out, ref.data(), ref.size()), 0);
  });
}

TEST(PackApi, UnpackInverts) {
  mpi::Runtime rt(cfg2());
  auto plugin = std::make_shared<GpuDatatypePlugin>();
  rt.set_gpu_plugin(plugin);
  rt.run([&](mpi::Process& p) {
    if (p.rank() != 0) return;
    auto dt = core::submatrix_type(32, 8, 48);
    const std::int64_t span = 48 * 8 * 8;
    auto* orig = static_cast<std::byte*>(
        sg::Malloc(p.gpu(), static_cast<std::size_t>(span)));
    auto* back = static_cast<std::byte*>(
        sg::Malloc(p.gpu(), static_cast<std::size_t>(span)));
    test::fill_pattern(orig, static_cast<std::size_t>(span), 9);
    std::memset(back, 0, static_cast<std::size_t>(span));
    std::vector<std::byte> wire(static_cast<std::size_t>(dt->size()));
    std::int64_t pos = 0;
    plugin->pack(p, orig, 1, dt, wire, &pos);
    pos = 0;
    plugin->unpack(p, wire, &pos, back, 1, dt);
    EXPECT_EQ(test::reference_pack(dt, 1, orig),
              test::reference_pack(dt, 1, back));
  });
}

TEST(PackApi, OverflowThrows) {
  mpi::Runtime rt(cfg2());
  auto plugin = std::make_shared<GpuDatatypePlugin>();
  rt.set_gpu_plugin(plugin);
  rt.run([&](mpi::Process& p) {
    if (p.rank() != 0) return;
    auto dt = mpi::Datatype::contiguous(100, mpi::kDouble());
    double src[100];
    std::vector<std::byte> tiny(32);
    std::int64_t pos = 0;
    EXPECT_THROW(plugin->pack(p, src, 1, dt, tiny, &pos),
                 std::invalid_argument);
  });
}

// --- GPUDirect small-message crossover ---------------------------------------------------

TEST(GpuDirectLimit, SmallMessagesUseDirectRdma) {
  // Below the limit on IB, the RDMA family is selected: the receiver ends
  // up opening the sender's handle, so the transfer completes without
  // host fragments. Verify both correctness and that the latency is lower
  // than the staged path for a small message.
  auto run = [&](bool gpudirect, std::int64_t elems) {
    auto cfg = cfg2();
    cfg.ranks_per_node = 1;
    cfg.gpu_eager_limit = 0;  // isolate rendezvous protocols
    cfg.gpudirect_rdma = gpudirect;
    mpi::Runtime rt(cfg);
    rt.set_gpu_plugin(std::make_shared<GpuDatatypePlugin>());
    vt::Time elapsed = 0;
    rt.run([&](mpi::Process& p) {
      mpi::Comm comm(p);
      // Contiguous payload: the regime where GPUDirect RDMA wins ([14]) -
      // a single one-sided get, no pack/unpack kernels on either side.
      auto dt = mpi::Datatype::contiguous(elems, mpi::kDouble());
      auto* buf = static_cast<std::byte*>(
          sg::Malloc(p.gpu(), static_cast<std::size_t>(dt->extent() + 64)));
      test::fill_pattern(buf, static_cast<std::size_t>(dt->size()), 3);
      // Warm both paths once, then measure.
      for (int it = 0; it < 2; ++it) {
        const vt::Time t0 = p.clock().now();
        if (p.rank() == 0) {
          comm.send(buf, 1, dt, 1, it);
          comm.recv(buf, 1, dt, 1, it + 100);
        } else {
          comm.recv(buf, 1, dt, 0, it);
          comm.send(buf, 1, dt, 0, it + 100);
        }
        if (p.rank() == 0 && it == 1) elapsed = p.clock().now() - t0;
      }
    });
    return elapsed;
  };
  // 2048 doubles = 16KB < 30KB limit.
  const vt::Time direct = run(true, 2048);
  const vt::Time staged = run(false, 2048);
  EXPECT_LT(direct, staged);
}

TEST(GpuDirectLimit, LargeMessagesFallBackToHostStaging) {
  // A 16MB message with GPUDirect enabled must take the copy-in/out path
  // (above gpudirect_limit_bytes) and still be correct, and perform like
  // the GPUDirect-off configuration.
  auto cfg = cfg2();
  cfg.ranks_per_node = 1;
  cfg.gpudirect_rdma = true;
  mpi::Runtime rt(cfg);
  rt.set_gpu_plugin(std::make_shared<GpuDatatypePlugin>());
  rt.run([&](mpi::Process& p) {
    mpi::Comm comm(p);
    auto dt = core::lower_triangular_type(512, 512);
    const std::int64_t span = 512 * 512 * 8;
    auto* buf = static_cast<std::byte*>(
        sg::Malloc(p.gpu(), static_cast<std::size_t>(span)));
    if (p.rank() == 0) {
      test::fill_pattern(buf, static_cast<std::size_t>(span), 91);
      comm.send(buf, 1, dt, 1, 0);
    } else {
      std::memset(buf, 0, static_cast<std::size_t>(span));
      comm.recv(buf, 1, dt, 0, 0);
      std::vector<std::byte> expect(static_cast<std::size_t>(span));
      test::fill_pattern(expect.data(), expect.size(), 91);
      EXPECT_EQ(test::reference_pack(dt, 1, buf),
                test::reference_pack(dt, 1, expect.data()));
    }
  });
}

TEST(GpuDirectLimit, LimitIsConfigurable) {
  // Raising the limit far above the message size forces the direct path
  // even for large transfers; it must stay correct (just slower).
  auto cfg = cfg2();
  cfg.ranks_per_node = 1;
  cfg.gpudirect_rdma = true;
  cfg.gpudirect_limit_bytes = INT64_MAX;
  mpi::Runtime rt(cfg);
  rt.set_gpu_plugin(std::make_shared<GpuDatatypePlugin>());
  rt.run([&](mpi::Process& p) {
    mpi::Comm comm(p);
    auto dt = core::submatrix_type(256, 64, 320);
    const std::int64_t span = 320 * 64 * 8;
    auto* buf = static_cast<std::byte*>(
        sg::Malloc(p.gpu(), static_cast<std::size_t>(span)));
    if (p.rank() == 0) {
      test::fill_pattern(buf, static_cast<std::size_t>(span), 14);
      comm.send(buf, 1, dt, 1, 0);
    } else {
      comm.recv(buf, 1, dt, 0, 0);
      std::vector<std::byte> expect(static_cast<std::size_t>(span));
      test::fill_pattern(expect.data(), expect.size(), 14);
      EXPECT_EQ(test::reference_pack(dt, 1, buf),
                test::reference_pack(dt, 1, expect.data()));
    }
  });
}

}  // namespace
}  // namespace gpuddt::proto

namespace gpuddt::proto {
namespace {

TEST(GpuEager, SmallDeviceSendsSkipRendezvous) {
  obs::Recorder rec;
  mpi::RuntimeConfig cfg = cfg2();
  cfg.recorder = &rec;
  mpi::Runtime rt(cfg);
  rt.set_gpu_plugin(std::make_shared<GpuDatatypePlugin>());
  rt.run([&](mpi::Process& p) {
    mpi::Comm comm(p);
    // 8KB < gpu_eager_limit: one eager AM, no pipeline fragments.
    auto dt = mpi::Datatype::vector(512, 1, 2, mpi::kDouble());
    auto* buf = static_cast<std::byte*>(
        sg::Malloc(p.gpu(), static_cast<std::size_t>(dt->extent() + 64)));
    if (p.rank() == 0) {
      test::fill_pattern(buf, static_cast<std::size_t>(dt->extent()), 8);
      comm.send(buf, 1, dt, 1, 0);
    } else {
      comm.recv(buf, 1, dt, 0, 0);
      std::vector<std::byte> expect(static_cast<std::size_t>(dt->extent()));
      test::fill_pattern(expect.data(), expect.size(), 8);
      EXPECT_EQ(test::reference_pack(dt, 1, buf),
                test::reference_pack(dt, 1, expect.data()));
    }
  });
  EXPECT_EQ(test::counter(rec, "gpu.sends.eager"), 1);
  EXPECT_EQ(test::counter(rec, "gpu.mode.ipc_rdma"), 0);
  EXPECT_EQ(test::counter(rec, "gpu.mode.host_frags"), 0);
  EXPECT_EQ(test::counter(rec, "pml.frags"), 0);
}

TEST(GpuEager, LimitBoundaryRoutesCorrectly) {
  auto run_with_size = [](std::int64_t bytes, std::int64_t* eager,
                          std::int64_t* pipelined) {
    obs::Recorder rec;
    mpi::RuntimeConfig cfg = cfg2();
    cfg.gpu_eager_limit = 4096;
    cfg.recorder = &rec;
    mpi::Runtime rt(cfg);
    rt.set_gpu_plugin(std::make_shared<GpuDatatypePlugin>());
    rt.run([&](mpi::Process& p) {
      mpi::Comm comm(p);
      // payload = (bytes/8) doubles = `bytes` packed bytes exactly
      auto vec = mpi::Datatype::vector(bytes / 8, 1, 2, mpi::kDouble());
      auto* buf = static_cast<std::byte*>(
          sg::Malloc(p.gpu(), static_cast<std::size_t>(vec->extent() + 64)));
      if (p.rank() == 0) {
        comm.send(buf, 1, vec, 1, 0);
      } else {
        comm.recv(buf, 1, vec, 0, 0);
      }
    });
    *eager = test::counter(rec, "gpu.sends.eager");
    *pipelined = test::counter(rec, "gpu.mode.ipc_rdma");
  };
  std::int64_t eager = 0, pipelined = 0;
  run_with_size(4096, &eager, &pipelined);  // exactly at the limit: eager
  EXPECT_EQ(eager, 1);
  EXPECT_EQ(pipelined, 0);
  run_with_size(8192, &eager, &pipelined);  // above: rendezvous
  EXPECT_EQ(eager, 0);
  EXPECT_EQ(pipelined, 1);
}

TEST(GpuEager, ZeroLimitDisablesTheTier) {
  obs::Recorder rec;
  mpi::RuntimeConfig cfg = cfg2();
  cfg.gpu_eager_limit = 0;
  cfg.recorder = &rec;
  mpi::Runtime rt(cfg);
  rt.set_gpu_plugin(std::make_shared<GpuDatatypePlugin>());
  rt.run([&](mpi::Process& p) {
    mpi::Comm comm(p);
    auto dt = mpi::Datatype::vector(64, 1, 2, mpi::kDouble());  // 512 B
    auto* buf = static_cast<std::byte*>(
        sg::Malloc(p.gpu(), static_cast<std::size_t>(dt->extent() + 64)));
    if (p.rank() == 0) {
      comm.send(buf, 1, dt, 1, 0);
    } else {
      comm.recv(buf, 1, dt, 0, 0);
    }
  });
  EXPECT_EQ(test::counter(rec, "gpu.sends.eager"), 0);
}

TEST(GpuEager, DeviceToHostSmallMessage) {
  mpi::Runtime rt(cfg2());
  rt.set_gpu_plugin(std::make_shared<GpuDatatypePlugin>());
  rt.run([](mpi::Process& p) {
    mpi::Comm comm(p);
    auto dt = mpi::Datatype::vector(128, 2, 4, mpi::kInt32());  // 1 KB
    if (p.rank() == 0) {
      auto* buf = static_cast<std::byte*>(
          sg::Malloc(p.gpu(), static_cast<std::size_t>(dt->extent() + 64)));
      test::fill_pattern(buf, static_cast<std::size_t>(dt->extent()), 17);
      comm.send(buf, 1, dt, 1, 0);
    } else {
      std::vector<std::byte> host(static_cast<std::size_t>(dt->extent() + 64),
                                  std::byte{0});
      comm.recv(host.data(), 1, dt, 0, 0);
      std::vector<std::byte> expect(host.size());
      test::fill_pattern(expect.data(),
                         static_cast<std::size_t>(dt->extent()), 17);
      EXPECT_EQ(test::reference_pack(dt, 1, host.data()),
                test::reference_pack(dt, 1, expect.data()));
    }
  });
}

}  // namespace
}  // namespace gpuddt::proto

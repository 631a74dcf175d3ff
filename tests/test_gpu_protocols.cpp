// End-to-end tests of the GPU datatype protocols (Section 4): pipelined
// RDMA over IPC, the contiguous-side shortcuts, the copy-in/out protocol,
// mixed host/device endpoints, and the MVAPICH-style baseline plugin.
// Every transfer is verified bit-exact against the CPU datatype engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <vector>

#include "baselines/mvapich_plugin.h"
#include "core/layouts.h"
#include "mpi/btl.h"
#include "mpi/pml.h"
#include "mpi/runtime.h"
#include "harness/harness.h"
#include "obs/recorder.h"
#include "protocols/gpu_plugin.h"
#include "test_helpers.h"

namespace gpuddt::proto {
namespace {

using mpi::Comm;
using mpi::DatatypePtr;
using mpi::Process;
using mpi::Runtime;
using mpi::RuntimeConfig;

RuntimeConfig gpu_world() {
  RuntimeConfig cfg;
  cfg.world_size = 2;
  cfg.machine.num_devices = 2;
  cfg.machine.device_memory_bytes = 256 << 20;
  return cfg;
}

/// Run a 0->1 transfer of (send_dt on device?) -> (recv_dt on device?) and
/// verify the received layout packs identically to the sent one.
void run_transfer(RuntimeConfig cfg, const DatatypePtr& send_dt,
                  std::int64_t send_count, bool send_on_device,
                  const DatatypePtr& recv_dt, std::int64_t recv_count,
                  bool recv_on_device,
                  std::shared_ptr<mpi::GpuTransferPlugin> plugin = nullptr) {
  Runtime rt(cfg);
  rt.set_gpu_plugin(plugin ? plugin
                           : std::make_shared<GpuDatatypePlugin>());
  rt.run([&](Process& p) {
    Comm comm(p);
    if (p.rank() == 0) {
      const std::int64_t span = test::span_bytes(send_dt, send_count);
      std::byte* buf;
      std::vector<std::byte> host_backing;
      if (send_on_device) {
        buf = static_cast<std::byte*>(sg::Malloc(p.gpu(), span));
      } else {
        host_backing.resize(static_cast<std::size_t>(span));
        buf = host_backing.data();
      }
      test::fill_pattern(buf, static_cast<std::size_t>(span), 77);
      std::byte* base = buf - send_dt->true_lb();
      comm.send(base, send_count, send_dt, 1, 42);
    } else {
      const std::int64_t span = test::span_bytes(recv_dt, recv_count);
      std::byte* buf;
      std::vector<std::byte> host_backing;
      if (recv_on_device) {
        buf = static_cast<std::byte*>(sg::Malloc(p.gpu(), span));
      } else {
        host_backing.resize(static_cast<std::size_t>(span));
        buf = host_backing.data();
      }
      std::memset(buf, 0, static_cast<std::size_t>(span));
      std::byte* base = buf - recv_dt->true_lb();
      const mpi::Status st = comm.recv(base, recv_count, recv_dt, 0, 42);
      EXPECT_EQ(st.bytes, send_dt->size() * send_count);

      // Reference: what the sender's data packs to.
      const std::int64_t sspan = test::span_bytes(send_dt, send_count);
      std::vector<std::byte> sent(static_cast<std::size_t>(sspan));
      test::fill_pattern(sent.data(), sent.size(), 77);
      const auto expect =
          test::reference_pack(send_dt, send_count,
                               sent.data() - send_dt->true_lb());
      const auto got = test::reference_pack(recv_dt, recv_count, base);
      ASSERT_EQ(got.size(), expect.size());
      EXPECT_EQ(got, expect) << "send=" << send_dt->describe()
                             << " recv=" << recv_dt->describe();
    }
  });
}

// --- Short device receives ------------------------------------------------------------
// MPI lets a message be shorter than the posted receive. Rank 0 sends
// `send_dt` from its GPU into a larger device layout on rank 1, which must
// hold the sent stream in the first packed bytes of its layout and leave
// every other byte of its buffer untouched. `path` is the counter that
// proves the intended protocol ran.

void run_short_device_recv(RuntimeConfig cfg, const DatatypePtr& send_dt,
                           const DatatypePtr& recv_dt, const char* path) {
  obs::Recorder rec;
  cfg.recorder = &rec;
  const std::int64_t sent = send_dt->size();
  ASSERT_LT(sent, recv_dt->size());
  const std::int64_t sspan = test::span_bytes(send_dt, 1);
  const std::int64_t rspan = test::span_bytes(recv_dt, 1);
  Runtime rt(cfg);
  rt.set_gpu_plugin(std::make_shared<GpuDatatypePlugin>());
  rt.run([&](Process& p) {
    Comm comm(p);
    if (p.rank() == 0) {
      auto* buf = static_cast<std::byte*>(sg::Malloc(p.gpu(), sspan));
      test::fill_pattern(buf, static_cast<std::size_t>(sspan), 77);
      comm.send(buf - send_dt->true_lb(), 1, send_dt, 1, 42);
      return;
    }
    auto* buf = static_cast<std::byte*>(sg::Malloc(p.gpu(), rspan));
    test::fill_pattern(buf, static_cast<std::size_t>(rspan), 5);
    std::vector<std::byte> expect(buf, buf + rspan);
    std::byte* base = buf - recv_dt->true_lb();
    const mpi::Status st = comm.recv(base, 1, recv_dt, 0, 42);
    EXPECT_EQ(st.bytes, sent);

    std::vector<std::byte> src(static_cast<std::size_t>(sspan));
    test::fill_pattern(src.data(), src.size(), 77);
    const auto stream =
        test::reference_pack(send_dt, 1, src.data() - send_dt->true_lb());
    const auto got = test::reference_pack(recv_dt, 1, base);
    EXPECT_TRUE(std::equal(stream.begin(), stream.end(), got.begin()));
    // Everything past the message keeps its fill.
    mpi::BlockCursor cur(recv_dt, 1);
    mpi::Block b;
    std::byte* ebase = expect.data() - recv_dt->true_lb();
    for (std::int64_t pk = 0; pk < sent && cur.next(&b); pk += b.len) {
      std::memcpy(ebase + b.offset, stream.data() + pk,
                  static_cast<std::size_t>(std::min(b.len, sent - pk)));
    }
    EXPECT_EQ(std::memcmp(buf, expect.data(), expect.size()), 0);
  });
  EXPECT_EQ(test::counter(rec, path), 1) << path;
}

TEST(ShortDeviceRecv, EagerTier) {
  run_short_device_recv(gpu_world(), core::lower_triangular_type(32, 32),
                        core::lower_triangular_type(40, 40),
                        "gpu.sends.eager");
}

TEST(ShortDeviceRecv, RecvDrivenSameDevice) {
  RuntimeConfig cfg = gpu_world();
  cfg.device_of = [](int) { return 0; };
  cfg.gpu_frag_bytes = 8192;
  run_short_device_recv(cfg, mpi::Datatype::contiguous(4096, mpi::kDouble()),
                        core::lower_triangular_type(128, 128),
                        "gpu.mode.rdma_recv_driven");
}

TEST(ShortDeviceRecv, RecvDrivenRemoteRead) {
  RuntimeConfig cfg = gpu_world();
  cfg.recv_local_staging = false;
  cfg.gpu_frag_bytes = 8192;
  run_short_device_recv(cfg, mpi::Datatype::contiguous(4096, mpi::kDouble()),
                        core::lower_triangular_type(128, 128),
                        "gpu.mode.rdma_recv_driven");
}

TEST(ShortDeviceRecv, PipelinedRdma) {
  RuntimeConfig cfg = gpu_world();
  cfg.gpu_frag_bytes = 16 * 1024;
  run_short_device_recv(cfg, core::lower_triangular_type(128, 128),
                        core::lower_triangular_type(160, 160),
                        "gpu.mode.ipc_rdma");
}

TEST(ShortDeviceRecv, CopyInOut) {
  RuntimeConfig cfg = gpu_world();
  cfg.ranks_per_node = 1;  // IB between the ranks: copy-in/out
  cfg.gpu_frag_bytes = 16 * 1024;
  run_short_device_recv(cfg, core::lower_triangular_type(128, 128),
                        core::lower_triangular_type(160, 160),
                        "gpu.mode.host_frags");
}

// --- Pipelined RDMA over IPC (Section 4.1) -------------------------------------------

TEST(GpuRdma, TriangularBetweenTwoGpus) {
  auto dt = core::lower_triangular_type(256, 256);
  run_transfer(gpu_world(), dt, 1, true, dt, 1, true);
}

TEST(GpuRdma, VectorBetweenTwoGpus) {
  auto dt = core::submatrix_type(512, 256, 768);
  run_transfer(gpu_world(), dt, 1, true, dt, 1, true);
}

TEST(GpuRdma, SameGpuBothRanks) {
  RuntimeConfig cfg = gpu_world();
  cfg.device_of = [](int) { return 0; };
  auto dt = core::lower_triangular_type(200, 200);
  run_transfer(cfg, dt, 1, true, dt, 1, true);
}

TEST(GpuRdma, DifferentLayoutsSameSignature) {
  // Sender: vector; receiver: triangular of the same element count? Not
  // equal counts - use vector vs contiguous instead (FFT reshape).
  auto vec = core::submatrix_type(128, 64, 192);
  auto cont = mpi::Datatype::contiguous(128 * 64, mpi::kDouble());
  run_transfer(gpu_world(), vec, 1, true, cont, 1, true);
}

TEST(GpuRdma, ContiguousSenderShortcutRecvDriven) {
  auto cont = mpi::Datatype::contiguous(1 << 19, mpi::kDouble());  // 4 MB
  auto vec = core::submatrix_type(1 << 10, 1 << 9, 1 << 10);
  run_transfer(gpu_world(), cont, 1, true, vec, 1, true);
}

TEST(GpuRdma, ContiguousBothSidesOneGet) {
  auto cont = mpi::Datatype::contiguous(1 << 18, mpi::kDouble());
  run_transfer(gpu_world(), cont, 1, true, cont, 1, true);
}

TEST(GpuRdma, ContiguousReceiverShortcutPackToRemote) {
  auto tri = core::lower_triangular_type(128, 128);
  auto cont =
      mpi::Datatype::contiguous(core::lower_triangle_elems(128),
                                mpi::kDouble());
  run_transfer(gpu_world(), tri, 1, true, cont, 1, true);
}

TEST(GpuRdma, TransposeStressTest) {
  auto t = core::transpose_type(96, 96);
  auto cont = mpi::Datatype::contiguous(96 * 96, mpi::kDouble());
  run_transfer(gpu_world(), cont, 1, true, t, 1, true);
}

TEST(GpuRdma, MultiCountElements) {
  auto dt = core::submatrix_type(64, 8, 96);
  run_transfer(gpu_world(), dt, 7, true, dt, 7, true);
}

TEST(GpuRdma, NoLocalStagingVariant) {
  RuntimeConfig cfg = gpu_world();
  cfg.recv_local_staging = false;  // unpack straight from remote memory
  auto dt = core::lower_triangular_type(192, 192);
  run_transfer(cfg, dt, 1, true, dt, 1, true);
}

TEST(GpuRdma, SmallFragmentsManyRounds) {
  RuntimeConfig cfg = gpu_world();
  cfg.gpu_frag_bytes = 4096;
  cfg.gpu_pipeline_depth = 2;
  auto dt = core::lower_triangular_type(128, 160);
  run_transfer(cfg, dt, 1, true, dt, 1, true);
}

TEST(GpuRdma, DepthOnePipelineStillCorrect) {
  RuntimeConfig cfg = gpu_world();
  cfg.gpu_pipeline_depth = 1;
  auto dt = core::submatrix_type(256, 64, 320);
  run_transfer(cfg, dt, 1, true, dt, 1, true);
}

// --- Copy-in/out protocol (Section 4.2) -----------------------------------------------

TEST(GpuCopyInOut, IpcDisabledFallsBackToHostStaging) {
  RuntimeConfig cfg = gpu_world();
  cfg.ipc_enabled = false;
  auto dt = core::lower_triangular_type(192, 192);
  run_transfer(cfg, dt, 1, true, dt, 1, true);
}

TEST(GpuCopyInOut, ForceCopyInOutFlag) {
  RuntimeConfig cfg = gpu_world();
  cfg.force_copy_inout = true;
  auto dt = core::submatrix_type(256, 128, 384);
  run_transfer(cfg, dt, 1, true, dt, 1, true);
}

TEST(GpuCopyInOut, InterNodeOverIb) {
  RuntimeConfig cfg = gpu_world();
  cfg.ranks_per_node = 1;  // force the IB path
  auto dt = core::lower_triangular_type(256, 256);
  run_transfer(cfg, dt, 1, true, dt, 1, true);
}

TEST(GpuCopyInOut, InterNodeWithoutZeroCopy) {
  RuntimeConfig cfg = gpu_world();
  cfg.ranks_per_node = 1;
  cfg.zero_copy = false;  // explicit D2H / H2D staging
  auto dt = core::submatrix_type(512, 128, 640);
  run_transfer(cfg, dt, 1, true, dt, 1, true);
}

TEST(GpuCopyInOut, InterNodeVectorToContiguous) {
  RuntimeConfig cfg = gpu_world();
  cfg.ranks_per_node = 1;
  auto vec = core::submatrix_type(256, 64, 300);
  auto cont = mpi::Datatype::contiguous(256 * 64, mpi::kDouble());
  run_transfer(cfg, vec, 1, true, cont, 1, true);
}

TEST(GpuCopyInOut, GpuDirectRdmaOverIb) {
  RuntimeConfig cfg = gpu_world();
  cfg.ranks_per_node = 1;
  cfg.gpudirect_rdma = true;  // RDMA family over the IB BTL
  auto dt = core::lower_triangular_type(160, 160);
  run_transfer(cfg, dt, 1, true, dt, 1, true);
}

// --- Mixed host/device endpoints ------------------------------------------------------

TEST(GpuMixed, DeviceToHost) {
  auto dt = core::lower_triangular_type(160, 160);
  run_transfer(gpu_world(), dt, 1, true, dt, 1, false);
}

TEST(GpuMixed, HostToDevice) {
  auto dt = core::lower_triangular_type(160, 160);
  run_transfer(gpu_world(), dt, 1, false, dt, 1, true);
}

TEST(GpuMixed, HostVectorToDeviceContiguous) {
  auto vec = core::submatrix_type(128, 32, 160);
  auto cont = mpi::Datatype::contiguous(128 * 32, mpi::kDouble());
  run_transfer(gpu_world(), vec, 1, false, cont, 1, true);
}

TEST(GpuMixed, SmallDeviceRecvViaEager) {
  // Host sender small enough for the eager path; device receiver.
  auto dt = mpi::Datatype::vector(16, 2, 4, mpi::kInt32());
  run_transfer(gpu_world(), dt, 1, false, dt, 1, true);
}

TEST(GpuMixed, EagerTraceCarriesNoFlowIds) {
  // Eager messages skip the rendezvous, so there is no RTS-carried
  // send_id to build a cross-rank frag_flow from. The receiver must
  // stamp its unpack spans flow-less (flow 0) - the old code recycled
  // req.last_flow, fabricating ids that collided across transfers.
  obs::Recorder rec;
  rec.enable_tracing();
  RuntimeConfig cfg = gpu_world();
  cfg.recorder = &rec;
  auto dt = mpi::Datatype::vector(16, 2, 4, mpi::kInt32());
  run_transfer(cfg, dt, 1, false, dt, 1, true);
  const auto events = rec.trace().snapshot();
  ASSERT_FALSE(events.empty());
  for (const auto& ev : events) {
    EXPECT_EQ(ev.flow, 0u) << "eager-path event '" << ev.name
                           << "' carries flow id " << ev.flow;
  }
}

TEST(GpuMixed, DeviceSenderSmallMessage) {
  // Device sends are always rendezvous; tiny payload must still work.
  auto dt = mpi::Datatype::vector(4, 1, 2, mpi::kDouble());
  run_transfer(gpu_world(), dt, 1, true, dt, 1, true);
}

TEST(GpuMixed, InterNodeDeviceToHost) {
  RuntimeConfig cfg = gpu_world();
  cfg.ranks_per_node = 1;
  auto dt = core::submatrix_type(128, 64, 192);
  run_transfer(cfg, dt, 1, true, dt, 1, false);
}

// --- Random property sweep --------------------------------------------------------------

class GpuRandomSweep : public ::testing::TestWithParam<int> {};

TEST_P(GpuRandomSweep, RandomTypeRoundTrip) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 7919 + 13);
  auto dt = test::random_datatype(rng);
  if (dt->size() == 0) GTEST_SKIP();
  const std::int64_t count = 1 + GetParam() % 4;
  RuntimeConfig cfg = gpu_world();
  // Vary the transport knobs with the seed.
  cfg.gpu_frag_bytes = 1u << (12 + GetParam() % 6);
  cfg.gpu_pipeline_depth = 1 + GetParam() % 4;
  if (GetParam() % 3 == 1) cfg.ranks_per_node = 1;
  if (GetParam() % 5 == 2) cfg.ipc_enabled = false;
  if (GetParam() % 7 == 3) cfg.zero_copy = false;
  if (GetParam() % 2 == 1) cfg.rdma_put_mode = true;
  run_transfer(cfg, dt, count, true, dt, count, true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GpuRandomSweep, ::testing::Range(0, 24));

// --- The MVAPICH-style baseline plugin ----------------------------------------------------

TEST(MvapichBaseline, TriangularCorrectness) {
  auto dt = core::lower_triangular_type(96, 96);
  run_transfer(gpu_world(), dt, 1, true, dt, 1, true,
               std::make_shared<base::MvapichLikePlugin>());
}

TEST(MvapichBaseline, VectorCorrectness) {
  auto dt = core::submatrix_type(128, 64, 160);
  run_transfer(gpu_world(), dt, 1, true, dt, 1, true,
               std::make_shared<base::MvapichLikePlugin>());
}

TEST(MvapichBaseline, DeviceToHost) {
  auto dt = core::submatrix_type(64, 32, 96);
  run_transfer(gpu_world(), dt, 1, true, dt, 1, false,
               std::make_shared<base::MvapichLikePlugin>());
}

TEST(MvapichBaseline, InterNode) {
  RuntimeConfig cfg = gpu_world();
  cfg.ranks_per_node = 1;
  auto dt = core::lower_triangular_type(128, 128);
  run_transfer(cfg, dt, 1, true, dt, 1, true,
               std::make_shared<base::MvapichLikePlugin>());
}

TEST(MvapichBaseline, EagerToDevice) {
  auto dt = mpi::Datatype::vector(8, 2, 4, mpi::kInt32());
  run_transfer(gpu_world(), dt, 1, false, dt, 1, true,
               std::make_shared<base::MvapichLikePlugin>());
}

// --- Registration cache ---------------------------------------------------------------------

TEST(GpuRdma, RepeatedTransfersReuseIpcRegistration) {
  RuntimeConfig cfg = gpu_world();
  Runtime rt(cfg);
  auto plugin = std::make_shared<GpuDatatypePlugin>();
  rt.set_gpu_plugin(plugin);
  auto dt = core::lower_triangular_type(96, 96);
  rt.run([&](Process& p) {
    Comm comm(p);
    const std::int64_t span = test::span_bytes(dt, 1);
    auto* buf = static_cast<std::byte*>(sg::Malloc(p.gpu(), span));
    test::fill_pattern(buf, static_cast<std::size_t>(span), 3);
    vt::Time first = 0, second = 0;
    for (int iter = 0; iter < 2; ++iter) {
      const vt::Time t0 = p.clock().now();
      if (p.rank() == 0) {
        comm.send(buf, 1, dt, 1, iter);
      } else {
        comm.recv(buf, 1, dt, 0, iter);
      }
      comm.barrier();
      (iter == 0 ? first : second) = p.clock().now() - t0;
    }
    // Second iteration skips IPC opens and DEV conversion: faster.
    EXPECT_LT(second, first);
  });
}

}  // namespace
}  // namespace gpuddt::proto

namespace gpuddt::proto {
namespace {

TEST(GpuRdmaPut, PutModeRoundTripsTriangular) {
  RuntimeConfig cfg = gpu_world();
  cfg.rdma_put_mode = true;
  auto dt = core::lower_triangular_type(256, 256);
  run_transfer(cfg, dt, 1, true, dt, 1, true);
}

TEST(GpuRdmaPut, PutModeReshape) {
  RuntimeConfig cfg = gpu_world();
  cfg.rdma_put_mode = true;
  cfg.gpu_frag_bytes = 32 * 1024;
  auto vec = core::submatrix_type(128, 64, 192);
  auto cont = mpi::Datatype::contiguous(128 * 64, mpi::kDouble());
  run_transfer(cfg, vec, 1, true, cont, 1, true);
}

TEST(GpuRdmaPut, PutAndGetModesPerformSimilarly) {
  auto run_mode = [](bool put) {
    harness::PingPongSpec spec;
    spec.cfg = gpu_world();
    spec.cfg.rdma_put_mode = put;
    spec.cfg.machine.device_memory_bytes = std::size_t{2} << 30;
    spec.dt0 = spec.dt1 = core::lower_triangular_type(2048, 2048);
    return harness::run_pingpong(spec);
  };
  const auto get = run_mode(false);
  const auto put = run_mode(true);
  // Same pipeline, opposite initiator: within ~20% of each other.
  EXPECT_LT(static_cast<double>(put.avg_roundtrip),
            1.2 * static_cast<double>(get.avg_roundtrip));
  EXPECT_GT(static_cast<double>(put.avg_roundtrip),
            0.8 * static_cast<double>(get.avg_roundtrip));
}

TEST(GpuRdmaPut, StreamTriggeredFallbackIsCounted) {
  // Stream-triggered chains are formulated receiver-GET-side, so PUT mode
  // runs plain kIpcRdma instead - counted as a fallback, never silent.
  const auto run = [](bool put, obs::Recorder* rec) {
    RuntimeConfig cfg = gpu_world();
    cfg.stream_triggered = 1;
    cfg.rdma_put_mode = put;
    cfg.recorder = rec;
    auto dt = core::lower_triangular_type(256, 256);
    run_transfer(cfg, dt, 1, true, dt, 1, true);
  };
  obs::Recorder put;
  run(true, &put);
  EXPECT_EQ(test::counter(put, "pml.stream_triggered.fallbacks"), 1);
  EXPECT_EQ(test::counter(put, "gpu.mode.ipc_rdma"), 1);
  EXPECT_EQ(test::counter(put, "gpu.mode.stream_triggered"), 0);
  obs::Recorder get;
  run(false, &get);
  EXPECT_EQ(test::counter(get, "gpu.mode.stream_triggered"), 1);
  EXPECT_EQ(get.metrics().counters_snapshot().count(
                "pml.stream_triggered.fallbacks"),
            0u);
}

TEST(GpuRdmaPut, ContiguousShortcutsUnaffectedByPutMode) {
  RuntimeConfig cfg = gpu_world();
  cfg.rdma_put_mode = true;
  auto cont = mpi::Datatype::contiguous(1 << 19, mpi::kDouble());
  auto tri = core::lower_triangular_type(128, 128);
  auto tri_cont =
      mpi::Datatype::contiguous(core::lower_triangle_elems(128),
                                mpi::kDouble());
  run_transfer(cfg, cont, 1, true,
               core::submatrix_type(1 << 10, 1 << 9, 1 << 10), 1, true);
  run_transfer(cfg, tri, 1, true, tri_cont, 1, true);
}

}  // namespace
}  // namespace gpuddt::proto

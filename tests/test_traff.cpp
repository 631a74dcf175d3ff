// Traff self-consistency of the GPU datatype protocols: sending a
// derived datatype directly must never be slower, in virtual time, than
// the user doing the engine's job by hand - an explicit pack to a
// contiguous device buffer, a contiguous send of the same bytes, and an
// explicit unpack on the receiver. Holds for the host-driven pipelined
// RDMA path AND the stream-triggered fragment chain (docs/protocols.md),
// which is also required to be at least as fast as the host-driven path
// on this multi-fragment shape (the ISSUE 8 overlap criterion).
// A dense count of n elements must cost what contiguous(n, t) costs, on
// the host and on the device.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "mpi/datatype.h"
#include "mpi/pml.h"
#include "mpi/runtime.h"
#include "obs/flowstats.h"
#include "obs/recorder.h"
#include "protocols/gpu_plugin.h"
#include "test_helpers.h"

namespace gpuddt::proto {
namespace {

using mpi::Comm;
using mpi::Datatype;
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

/// A multi-fragment non-contiguous shape: 2048 blocks of 128 doubles at
/// stride 256 (2 MB payload, several pipeline fragments).
DatatypePtr layout() {
  return Datatype::vector(
      2048, 128, 256, Datatype::primitive(mpi::Primitive::kDouble));
}

/// 0 -> 1 device-to-device DDT send; returns the receiver's completion
/// time on the virtual clock. `stream_triggered` drives the
/// RuntimeConfig tri-state knob.
vt::Time ddt_transfer_time(int stream_triggered) {
  obs::Recorder rec;
  RuntimeConfig cfg = gpu_world();
  cfg.stream_triggered = stream_triggered;
  cfg.recorder = &rec;
  const DatatypePtr dt = layout();
  vt::Time done = 0;
  Runtime rt(cfg);
  rt.set_gpu_plugin(std::make_shared<GpuDatatypePlugin>());
  rt.run([&](Process& p) {
    Comm comm(p);
    const std::int64_t span = test::span_bytes(dt, 1);
    auto* buf = static_cast<std::byte*>(sg::Malloc(p.gpu(), span));
    if (p.rank() == 0) {
      test::fill_pattern(buf, static_cast<std::size_t>(span), 5);
      comm.send(buf, 1, dt, 1, 7);
    } else {
      comm.recv(buf, 1, dt, 0, 7);
      done = p.clock().now();
    }
    sg::Free(p.gpu(), buf);
  });
  // The mode under test must actually have engaged.
  EXPECT_EQ(test::counter(rec, "gpu.mode.stream_triggered"),
            stream_triggered != 0 ? 1 : 0);
  return done;
}

/// The same bytes moved by hand: explicit engine pack into a contiguous
/// device buffer, contiguous send, explicit unpack. This is the
/// comparator Traff's self-consistency requirement measures against.
vt::Time packed_transfer_time() {
  RuntimeConfig cfg = gpu_world();
  cfg.stream_triggered = 0;
  const DatatypePtr dt = layout();
  const std::int64_t bytes = dt->size();
  auto plugin = std::make_shared<GpuDatatypePlugin>();
  vt::Time done = 0;
  Runtime rt(cfg);
  rt.set_gpu_plugin(plugin);
  rt.run([&](Process& p) {
    Comm comm(p);
    const std::int64_t span = test::span_bytes(dt, 1);
    auto* buf = static_cast<std::byte*>(sg::Malloc(p.gpu(), span));
    auto* staging = static_cast<std::byte*>(sg::Malloc(p.gpu(), bytes));
    const DatatypePtr contig = Datatype::contiguous(bytes, mpi::kByte());
    if (p.rank() == 0) {
      test::fill_pattern(buf, static_cast<std::size_t>(span), 5);
      std::int64_t pos = 0;
      plugin->pack(p, buf, 1, dt,
                   std::span<std::byte>(staging,
                                        static_cast<std::size_t>(bytes)),
                   &pos);
      comm.send(staging, 1, contig, 1, 7);
    } else {
      comm.recv(staging, 1, contig, 0, 7);
      std::int64_t pos = 0;
      plugin->unpack(p,
                     std::span<const std::byte>(
                         staging, static_cast<std::size_t>(bytes)),
                     &pos, buf, 1, dt);
      done = p.clock().now();
    }
    sg::Free(p.gpu(), staging);
    sg::Free(p.gpu(), buf);
  });
  return done;
}

/// p99 of the first flow class matching `kind`/`shape` in a latency
/// report (-1 if absent). Classes are keyed kind/shape-digest/bucket, so
/// a prefix match pins the class without hardcoding the size bucket.
std::int64_t class_p99(const obs::FlowStats::Report& rep,
                       const std::string& kind, std::uint64_t shape) {
  char prefix[80];
  std::snprintf(prefix, sizeof(prefix), "%s/%016llx/", kind.c_str(),
                static_cast<unsigned long long>(shape));
  for (const auto& [key, cls] : rep.classes) {
    if (key.rfind(prefix, 0) == 0) return cls.p99;
  }
  return -1;
}

/// All class keys of a report, for failure messages.
std::string class_keys(const obs::FlowStats::Report& rep) {
  std::string keys;
  for (const auto& [key, cls] : rep.classes) {
    if (!keys.empty()) keys += ", ";
    keys += key;
  }
  return keys.empty() ? "(none)" : keys;
}

/// The DDT transfer of ddt_transfer_time, run with the flow-latency
/// engine recording; returns the report after Runtime teardown (the
/// generation fence has dropped any open flows by then).
obs::FlowStats::Report ddt_flow_report(int stream_triggered,
                                       obs::Recorder* rec) {
  RuntimeConfig cfg = gpu_world();
  cfg.stream_triggered = stream_triggered;
  cfg.recorder = rec;
  const DatatypePtr dt = layout();
  auto plugin = std::make_shared<GpuDatatypePlugin>();
  {
    Runtime rt(cfg);
    rt.set_gpu_plugin(plugin);
    rt.run([&](Process& p) {
      Comm comm(p);
      const std::int64_t span = test::span_bytes(dt, 1);
      auto* buf = static_cast<std::byte*>(sg::Malloc(p.gpu(), span));
      if (p.rank() == 0) {
        test::fill_pattern(buf, static_cast<std::size_t>(span), 5);
        comm.send(buf, 1, dt, 1, 7);
      } else {
        comm.recv(buf, 1, dt, 0, 7);
      }
      sg::Free(p.gpu(), buf);
    });
  }
  return rec->flowstats().report();
}

/// The hand-packed comparator of packed_transfer_time with the latency
/// engine recording: its report carries three classes - the explicit
/// pack, the contiguous send, and the explicit unpack.
obs::FlowStats::Report packed_latency_report(obs::Recorder* rec,
                                             DatatypePtr* contig_out) {
  RuntimeConfig cfg = gpu_world();
  cfg.stream_triggered = 0;
  cfg.recorder = rec;
  const DatatypePtr dt = layout();
  const std::int64_t bytes = dt->size();
  const DatatypePtr contig = Datatype::contiguous(bytes, mpi::kByte());
  *contig_out = contig;
  auto plugin = std::make_shared<GpuDatatypePlugin>();
  {
    Runtime rt(cfg);
    rt.set_gpu_plugin(plugin);
    rt.run([&](Process& p) {
      Comm comm(p);
      const std::int64_t span = test::span_bytes(dt, 1);
      auto* buf = static_cast<std::byte*>(sg::Malloc(p.gpu(), span));
      auto* staging = static_cast<std::byte*>(sg::Malloc(p.gpu(), bytes));
      if (p.rank() == 0) {
        test::fill_pattern(buf, static_cast<std::size_t>(span), 5);
        std::int64_t pos = 0;
        plugin->pack(p, buf, 1, dt,
                     std::span<std::byte>(staging,
                                          static_cast<std::size_t>(bytes)),
                     &pos);
        comm.send(staging, 1, contig, 1, 7);
      } else {
        comm.recv(staging, 1, contig, 0, 7);
        std::int64_t pos = 0;
        plugin->unpack(p,
                       std::span<const std::byte>(
                           staging, static_cast<std::size_t>(bytes)),
                       &pos, buf, 1, dt);
      }
      sg::Free(p.gpu(), staging);
      sg::Free(p.gpu(), buf);
    });
  }
  return rec->flowstats().report();
}

TEST(TraffSelfConsistency, LatencyReportP99HoldsInBothModes) {
  // The Traff requirement restated over the flow-latency report
  // (docs/latency.md): the DDT-send class's p99 must not exceed the sum
  // of the hand-packed pipeline's per-class p99s (explicit pack +
  // contiguous send + explicit unpack) - in the host-driven mode AND the
  // stream-triggered mode. Exact nearest-rank percentiles from the
  // engine, not wall-clock: the assertion is deterministic.
  const DatatypePtr dt = layout();
  DatatypePtr contig;
  obs::Recorder packed_rec;
  packed_rec.flowstats().enable(true);
  const auto packed = packed_latency_report(&packed_rec, &contig);
  const std::int64_t pack_p99 = class_p99(packed, "pack", dt->shape_digest());
  const std::int64_t send_p99 =
      class_p99(packed, "send", contig->shape_digest());
  const std::int64_t unpack_p99 =
      class_p99(packed, "unpack", dt->shape_digest());
  ASSERT_GT(pack_p99, 0)
      << "no pack class; classes: " << class_keys(packed);
  ASSERT_GT(send_p99, 0)
      << "no contiguous-send class; classes: " << class_keys(packed);
  ASSERT_GT(unpack_p99, 0)
      << "no unpack class; classes: " << class_keys(packed);
  const std::int64_t budget = pack_p99 + send_p99 + unpack_p99;

  for (const int stream : {0, 1}) {
    obs::Recorder rec;
    rec.flowstats().enable(true);
    const auto rep = ddt_flow_report(stream, &rec);
    const std::int64_t ddt_p99 = class_p99(rep, "send", dt->shape_digest());
    ASSERT_GT(ddt_p99, 0)
        << "no DDT-send class in the " << (stream ? "stream" : "host")
        << " report; classes: " << class_keys(rep);
    EXPECT_LE(ddt_p99, budget)
        << (stream ? "stream-triggered" : "host-driven")
        << " DDT-send p99 exceeds pack + contiguous-send + unpack p99";
  }
}

TEST(TraffSelfConsistency, DdtSendNeverSlowerThanExplicitPack) {
  const vt::Time packed = packed_transfer_time();
  const vt::Time host_driven = ddt_transfer_time(0);
  const vt::Time stream = ddt_transfer_time(1);
  ASSERT_GT(packed, 0);
  ASSERT_GT(host_driven, 0);
  ASSERT_GT(stream, 0);
  // Traff: the library must beat (or match) the user-level pack + send
  // + unpack of the same bytes - in both transfer modes.
  EXPECT_LE(host_driven, packed)
      << "host-driven DDT send slower than explicit pack + contiguous send";
  EXPECT_LE(stream, packed)
      << "stream-triggered DDT send slower than explicit pack + "
         "contiguous send";
  // ISSUE 8 overlap criterion: offloading the chain must not cost
  // overlap relative to the host-driven pipeline on this shape.
  EXPECT_LE(stream, host_driven)
      << "stream-triggered chain slower than the host-driven pipeline";
}

// Traff's guideline for dense counts: n elements of t cost what one
// contiguous(n, t) costs, on the host (one run, one memcpy, one walk
// charge per fragment) and on the device (both take the vector path).

/// Host-to-host send of (dt, count) from rank 0 to rank 1; returns the
/// receiver's completion time on the virtual clock.
vt::Time host_transfer_time(const DatatypePtr& dt, std::int64_t count) {
  RuntimeConfig cfg;
  cfg.world_size = 2;
  vt::Time done = 0;
  Runtime rt(cfg);
  rt.run([&](Process& p) {
    Comm comm(p);
    std::vector<std::byte> buf(static_cast<std::size_t>(dt->size() * count));
    if (p.rank() == 0) {
      test::fill_pattern(buf.data(), buf.size(), 9);
      comm.send(buf.data(), count, dt, 1, 7);
    } else {
      comm.recv(buf.data(), count, dt, 0, 7);
      done = p.clock().now();
    }
  });
  return done;
}

TEST(TraffSelfConsistency, HostDenseCountCostsWhatContiguousCosts) {
  // 4 KiB goes eager; 1 MiB is a rendezvous of two fragments.
  const RuntimeConfig cfg;
  ASSERT_LE(std::size_t{4096}, cfg.eager_limit);
  ASSERT_GT(std::size_t{1} << 20, cfg.frag_bytes);
  for (const std::int64_t bytes : {std::int64_t{4096}, std::int64_t{1} << 20}) {
    const std::int64_t n = bytes / 8;
    const vt::Time dense = host_transfer_time(mpi::kDouble(), n);
    const vt::Time contig =
        host_transfer_time(Datatype::contiguous(n, mpi::kDouble()), 1);
    ASSERT_GT(contig, 0);
    EXPECT_EQ(dense, contig) << bytes << " B: kDouble x " << n
                             << " vs contiguous(" << n << ", kDouble) x 1";
  }
}

/// Virtual time of one MPI_Pack of (dt, count) from a device buffer into
/// a contiguous device buffer on rank 0.
vt::Time device_pack_time(const DatatypePtr& dt, std::int64_t count) {
  const std::int64_t bytes = dt->size() * count;
  auto plugin = std::make_shared<GpuDatatypePlugin>();
  vt::Time took = 0;
  Runtime rt(gpu_world());
  rt.set_gpu_plugin(plugin);
  rt.run([&](Process& p) {
    if (p.rank() != 0) return;
    auto* buf = static_cast<std::byte*>(sg::Malloc(p.gpu(), bytes));
    auto* packed = static_cast<std::byte*>(sg::Malloc(p.gpu(), bytes));
    test::fill_pattern(buf, static_cast<std::size_t>(bytes), 9);
    std::int64_t pos = 0;
    const vt::Time t0 = p.clock().now();
    plugin->pack(p, buf, count, dt,
                 std::span<std::byte>(packed, static_cast<std::size_t>(bytes)),
                 &pos);
    took = p.clock().now() - t0;
    EXPECT_EQ(pos, bytes);
    sg::Free(p.gpu(), packed);
    sg::Free(p.gpu(), buf);
  });
  return took;
}

TEST(TraffSelfConsistency, DeviceDenseCountPacksLikeContiguous) {
  const std::int64_t n = 4096;
  const vt::Time dense = device_pack_time(mpi::kByte(), n);
  const vt::Time contig =
      device_pack_time(Datatype::contiguous(n, mpi::kByte()), 1);
  ASSERT_GT(contig, 0);
  EXPECT_EQ(dense, contig);
}

}  // namespace
}  // namespace gpuddt::proto

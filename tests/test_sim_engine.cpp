// The event-driven simulator core (src/vtime/engine.h, docs/simulator.md):
// engine-level scheduling semantics, byte-exact replay of whole MPI
// workloads, deadlock diagnostics through the MPI stack, 1000-rank scale,
// and the modeled NVLink/fat-tree topology.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "mpi/coll.h"
#include "mpi/pml.h"
#include "mpi/runtime.h"
#include "obs/canon.h"
#include "obs/json.h"
#include "obs/recorder.h"
#include "protocols/gpu_plugin.h"
#include "rma/window.h"
#include "simgpu/runtime.h"
#include "test_helpers.h"
#include "vtime/engine.h"

namespace gpuddt {
namespace {

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

// --- EventEngine scheduling semantics ---------------------------------------

TEST(EventEngine, DispatchesTasksInIdOrder) {
  vt::EventEngine eng(3);
  std::vector<int> order;
  eng.run([&](int t) { order.push_back(t); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(eng.stats().dispatches, 3u);
}

TEST(EventEngine, YieldRotatesRoundRobin) {
  // The yielding task becomes the scan anchor, so peers run before it
  // resumes.
  vt::EventEngine eng(3);
  std::vector<int> order;
  eng.run([&](int t) {
    order.push_back(t);
    eng.yield(t);
    order.push_back(t + 10);
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 10, 11, 12}));
  EXPECT_EQ(eng.stats().yields, 3u);
}

TEST(EventEngine, YieldIsNoopWhenSoleRunnable) {
  vt::EventEngine eng(1);
  eng.run([&](int t) {
    eng.yield(t);
    eng.yield(t);
  });
  EXPECT_EQ(eng.stats().yields, 0u);
  EXPECT_EQ(eng.stats().dispatches, 1u);
}

TEST(EventEngine, NoteMessageWakesBlockedTask) {
  vt::EventEngine eng(2);
  std::vector<int> order;
  eng.run([&](int t) {
    if (t == 0) {
      eng.wait_for_message(0);
      order.push_back(100);
    } else {
      order.push_back(1);
      eng.note_message(0);
      order.push_back(2);
    }
  });
  EXPECT_EQ(order, (std::vector<int>{1, 2, 100}));
  EXPECT_EQ(eng.stats().wakeups, 1u);
}

TEST(EventEngine, PendingMessageConsumedWithoutSwitching) {
  vt::EventEngine eng(2);
  std::vector<int> order;
  eng.run([&](int t) {
    if (t == 0) {
      eng.note_message(0);  // already delivered before the wait
      eng.wait_for_message(0);
      order.push_back(0);
    } else {
      order.push_back(1);
    }
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
}

TEST(EventEngine, PropagatesLowestTaskException) {
  vt::EventEngine eng(3);
  try {
    eng.run([&](int t) {
      if (t >= 1) throw std::runtime_error("boom from " + std::to_string(t));
    });
    FAIL() << "expected the task exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom from 1");
  }
}

TEST(EventEngine, RunIsSingleUse) {
  vt::EventEngine eng(1);
  eng.run([](int) {});
  EXPECT_THROW(eng.run([](int) {}), std::logic_error);
}

TEST(EventEngine, DeadlockReportNamesEveryBlockedTask) {
  vt::EventEngine eng(2);
  eng.set_block_describer(
      [](int t) { return "op" + std::to_string(t); });
  try {
    eng.run([&](int t) { eng.wait_for_message(t); });
    FAIL() << "expected DeadlockError";
  } catch (const vt::DeadlockError& e) {
    const std::string msg = e.what();
    EXPECT_TRUE(contains(msg, "deadlock detected")) << msg;
    EXPECT_TRUE(contains(msg, "rank 0: op0")) << msg;
    EXPECT_TRUE(contains(msg, "rank 1: op1")) << msg;
  }
}

// --- Replay: two event-loop runs of one workload -----------------------------

struct Capture {
  std::string canon;   // obs::canonical_metrics of the run's dump
  std::string chrome;  // virtual-time chrome trace (docs/tracing.md)
};

Capture run_captured(mpi::RuntimeConfig cfg,
                     const std::function<void(mpi::Process&)>& body,
                     bool gpu_plugin = false) {
  obs::Recorder rec;
  rec.enable_tracing(true);
  cfg.recorder = &rec;
  mpi::Runtime rt(cfg);
  if (gpu_plugin) rt.set_gpu_plugin(std::make_shared<proto::GpuDatatypePlugin>());
  rt.run(body);
  return {obs::canonical_metrics(obs::json::parse(rec.to_json())),
          rec.to_chrome_json()};
}

// The canonical metrics and the chrome trace of a second run must match
// the first byte for byte: the event loop's dispatch order, and with it
// every virtual timestamp, is a pure function of the program.
void expect_replays_identically(mpi::RuntimeConfig cfg,
                                const std::function<void(mpi::Process&)>& body,
                                bool gpu_plugin = false) {
  const Capture first = run_captured(cfg, body, gpu_plugin);
  const Capture second = run_captured(cfg, body, gpu_plugin);
  EXPECT_EQ(first.canon, second.canon);
  EXPECT_EQ(first.chrome, second.chrome);
  EXPECT_TRUE(contains(first.canon, "gpuddt-metrics-v1"));
}

TEST(SchedulerEquivalence, DevicePingpongMatchesByteForByte) {
  // The fig9 shape: a strided device datatype bounced between two ranks.
  mpi::RuntimeConfig cfg;
  cfg.world_size = 2;
  cfg.machine.num_devices = 2;
  cfg.machine.device_memory_bytes = 256u << 20;
  expect_replays_identically(
      cfg,
      [](mpi::Process& p) {
        mpi::Comm comm(p);
        const auto dt = mpi::Datatype::vector(256, 16, 32, mpi::kByte());
        const std::int64_t span = test::span_bytes(dt, 4);
        auto* buf = static_cast<std::byte*>(sg::Malloc(p.gpu(), span));
        test::fill_pattern(buf, static_cast<std::size_t>(span),
                           static_cast<std::uint32_t>(p.rank()));
        for (int it = 0; it < 3; ++it) {
          if (p.rank() == 0) {
            comm.send(buf, 4, dt, 1, it);
            comm.recv(buf, 4, dt, 1, 100 + it);
          } else {
            comm.recv(buf, 4, dt, 0, it);
            comm.send(buf, 4, dt, 0, 100 + it);
          }
        }
      },
      /*gpu_plugin=*/true);
}

TEST(SchedulerEquivalence, CollectivesMatchByteForByte) {
  mpi::RuntimeConfig cfg;
  cfg.world_size = 8;
  cfg.machine.num_devices = 1;
  expect_replays_identically(cfg, [](mpi::Process& p) {
    mpi::Comm comm(p);
    mpi::Collectives coll(comm);
    std::vector<std::int32_t> v(64, p.rank());
    std::vector<std::int32_t> sum(64, 0);
    coll.allreduce(v.data(), sum.data(), 64, mpi::kInt32(),
                   mpi::ReduceOp::kSum);
    EXPECT_EQ(sum[0], 28);  // 0+1+...+7
    std::vector<std::int32_t> all(64 * 8, 0);
    coll.allgather(v.data(), all.data(), 64, mpi::kInt32());
    coll.bcast(v.data(), 64, mpi::kInt32(), 3);
    EXPECT_EQ(v[0], 3);
    comm.barrier();
  });
}

TEST(SchedulerEquivalence, OnesidedMatchesByteForByte) {
  mpi::RuntimeConfig cfg;
  cfg.world_size = 4;
  cfg.machine.num_devices = 1;
  expect_replays_identically(cfg, [](mpi::Process& p) {
    mpi::Comm comm(p);
    std::vector<std::int32_t> win(256, -1);
    rma::Window w(comm, win.data(), 256 * 4);
    w.fence();
    if (p.rank() != 0) {
      std::vector<std::int32_t> data(16, p.rank());
      w.put(data.data(), 16, mpi::kInt32(), 0, 64 * p.rank(), 16,
            mpi::kInt32());
    }
    w.fence();
    if (p.rank() == 0) {
      for (int r = 1; r < 4; ++r) EXPECT_EQ(win[16 * r], r);
    }
  });
}

// --- Deadlock diagnostics through the MPI stack -----------------------------

TEST(DeadlockDiagnostics, EventBackendReportsPendingOps) {
  mpi::RuntimeConfig cfg;
  cfg.world_size = 2;
  mpi::Runtime rt(cfg);
  try {
    rt.run([](mpi::Process& p) {
      mpi::Comm comm(p);
      std::byte b{};
      // Mismatched tags: neither recv can ever match.
      if (p.rank() == 0)
        comm.recv(&b, 1, mpi::kByte(), 1, 7);
      else
        comm.recv(&b, 1, mpi::kByte(), 0, 9);
    });
    FAIL() << "expected DeadlockError";
  } catch (const vt::DeadlockError& e) {
    const std::string msg = e.what();
    EXPECT_TRUE(contains(msg, "rank 0: recv(src=1, tag=7")) << msg;
    EXPECT_TRUE(contains(msg, "rank 1: recv(src=0, tag=9")) << msg;
  }
}

TEST(DeadlockDiagnostics, WildcardRecvReportsAny) {
  mpi::RuntimeConfig cfg;
  cfg.world_size = 2;
  mpi::Runtime rt(cfg);
  try {
    rt.run([](mpi::Process& p) {
      if (p.rank() == 0) {
        std::byte b{};
        mpi::Comm(p).recv(&b, 1, mpi::kByte(), mpi::kAnySource,
                          mpi::kAnyTag);
      }
      // rank 1 exits immediately; nothing can ever match rank 0's recv.
    });
    FAIL() << "expected DeadlockError";
  } catch (const vt::DeadlockError& e) {
    EXPECT_TRUE(contains(e.what(), "rank 0: recv(src=any, tag=any"))
        << e.what();
  }
}

// --- Scale: 1024 ranks in one process ---------------------------------------

mpi::RuntimeConfig scale_config(int ranks) {
  mpi::RuntimeConfig cfg;
  cfg.world_size = ranks;
  cfg.ranks_per_node = 32;
  cfg.machine.num_devices = 1;
  cfg.machine.topo.fat_tree_leaf_nodes = 4;
  cfg.machine.topo.fat_tree_uplinks = 2;
  cfg.sim_stack_bytes = 256 * 1024;
  return cfg;
}

TEST(SimScale, Ring1024CompletesDeterministically) {
  auto run_once = []() {
    obs::Recorder rec;
    mpi::RuntimeConfig cfg = scale_config(1024);
    cfg.recorder = &rec;
    mpi::Runtime rt(cfg);
    int done = 0;
    rt.run([&](mpi::Process& p) {
      mpi::Comm comm(p);
      std::int32_t out = p.rank(), in = -1;
      comm.sendrecv(&out, 1, mpi::kInt32(), (p.rank() + 1) % 1024, 0, &in, 1,
                    mpi::kInt32(), (p.rank() + 1023) % 1024, 0);
      EXPECT_EQ(in, (p.rank() + 1023) % 1024);
      comm.barrier();
      ++done;
    });
    EXPECT_EQ(done, 1024);
    EXPECT_GE(rt.sim_stats().dispatches, 1024u);
    EXPECT_GT(rt.sim_stats().max_vtime, 0);
    return obs::canonical_metrics(obs::json::parse(rec.to_json()));
  };
  const std::string first = run_once();
  EXPECT_EQ(first, run_once());
}

TEST(SimScale, DeadlockAt1024ReportsFirstAndLastRank) {
  mpi::RuntimeConfig cfg = scale_config(1024);
  mpi::Runtime rt(cfg);
  try {
    rt.run([](mpi::Process& p) {
      std::byte b{};
      // Everyone waits for a message nobody sends.
      mpi::Comm(p).recv(&b, 1, mpi::kByte(), (p.rank() + 1) % 1024, 3);
    });
    FAIL() << "expected DeadlockError";
  } catch (const vt::DeadlockError& e) {
    const std::string msg = e.what();
    EXPECT_TRUE(contains(msg, "rank 0: recv(src=1, tag=3")) << msg.substr(0, 200);
    EXPECT_TRUE(contains(msg, "rank 1023: recv(src=0, tag=3"));
  }
}

// --- Modeled topology: NVLink domains and fat-tree uplinks ------------------

TEST(Topology, NvlinkDomainAcceleratesPeerCopies) {
  auto finish_time = [](int domain_size) {
    mpi::RuntimeConfig cfg;
    cfg.world_size = 2;
    cfg.machine.num_devices = 2;
    cfg.machine.device_memory_bytes = 256u << 20;
    cfg.machine.topo.nvlink_domain_size = domain_size;
    vt::Time finish = 0;
    mpi::Runtime rt(cfg);
    rt.set_gpu_plugin(std::make_shared<proto::GpuDatatypePlugin>());
    rt.run([&](mpi::Process& p) {
      mpi::Comm comm(p);
      const std::int64_t n = 4 << 20;
      auto* buf = static_cast<std::byte*>(sg::Malloc(p.gpu(), n));
      if (p.rank() == 0) {
        std::memset(buf, 0x5a, static_cast<std::size_t>(n));
        comm.send(buf, n, mpi::kByte(), 1, 5);
      } else {
        comm.recv(buf, n, mpi::kByte(), 0, 5);
        finish = p.clock().now();
      }
    });
    return finish;
  };
  const vt::Time pcie = finish_time(0);    // default: P2P over PCI-E
  const vt::Time nvlink = finish_time(2);  // devices 0,1 share a domain
  EXPECT_GT(pcie, 0);
  EXPECT_LT(nvlink, pcie);
}

TEST(Topology, FatTreeChargesCrossLeafDetourOnly) {
  // 3 single-rank nodes; with 2 nodes per leaf, rank 1 shares rank 0's
  // leaf and rank 2 sits across the spine. The spine is oversubscribed
  // (1 GB/s uplinks under 5.8 GB/s node links) so the detour's
  // serialization time dominates; at full bisection the wormhole model
  // hides the two 0.7us hop latencies behind the wire latency and a
  // lone transfer is (correctly) unaffected.
  auto recv_finish = [](int leaf_nodes, int receiver) {
    mpi::RuntimeConfig cfg;
    cfg.world_size = 3;
    cfg.ranks_per_node = 1;
    cfg.machine.num_devices = 1;
    cfg.machine.topo.fat_tree_leaf_nodes = leaf_nodes;
    cfg.machine.topo.fat_tree_uplink_gbps = 1.0;
    vt::Time finish = 0;
    mpi::Runtime rt(cfg);
    rt.run([&](mpi::Process& p) {
      mpi::Comm comm(p);
      std::vector<std::byte> buf(256 * 1024);
      if (p.rank() == 0) {
        comm.send(buf.data(), static_cast<std::int64_t>(buf.size()),
                  mpi::kByte(), receiver, 1);
      } else if (p.rank() == receiver) {
        comm.recv(buf.data(), static_cast<std::int64_t>(buf.size()),
                  mpi::kByte(), 0, 1);
        finish = p.clock().now();
      }
    });
    return finish;
  };
  // Same-leaf traffic never detours: identical to the flat full-bisection
  // fabric, byte-for-byte.
  EXPECT_EQ(recv_finish(2, 1), recv_finish(0, 1));
  // Cross-leaf traffic pays the shared-uplink detour.
  EXPECT_GT(recv_finish(2, 2), recv_finish(0, 2));
}

TEST(Topology, DomainHelpers) {
  sg::MachineConfig mc = test::machine_config(4);
  mc.topo.nvlink_domain_size = 2;
  sg::Machine m(mc);
  EXPECT_EQ(m.nvlink_domain(0), 0);
  EXPECT_EQ(m.nvlink_domain(3), 1);
  EXPECT_TRUE(m.nvlink_connected(0, 1));
  EXPECT_FALSE(m.nvlink_connected(1, 2));
  EXPECT_FALSE(m.nvlink_connected(2, 2));  // self is not a peer link
}

}  // namespace
}  // namespace gpuddt

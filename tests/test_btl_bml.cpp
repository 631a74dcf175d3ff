// Direct unit tests of the BTL / BML layer: Active-Message delivery and
// ordering, link timing, RDMA primitives, rail selection, and BML
// routing - below the PML, using raw handlers.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "mpi/bml.h"
#include "mpi/btl.h"
#include "mpi/pml.h"
#include "mpi/runtime.h"
#include "test_helpers.h"

namespace gpuddt::mpi {
namespace {

RuntimeConfig raw_world(int ranks, int per_node) {
  RuntimeConfig cfg;
  cfg.world_size = ranks;
  cfg.ranks_per_node = per_node;
  cfg.machine.num_devices = 2;
  cfg.machine.device_memory_bytes = 128u << 20;
  return cfg;
}

TEST(BtlRaw, AmHandlerReceivesPayloadAndArrivalTime) {
  Runtime rt(raw_world(2, 1 << 30));
  int hits = 0;
  const int handler = rt.register_handler([&](Process& p, AmMessage& m) {
    EXPECT_EQ(m.src_rank, 0);
    EXPECT_EQ(m.payload.size(), 100u);
    EXPECT_GT(m.arrival, 0);
    EXPECT_GE(p.clock().now(), m.arrival);  // progress waited for arrival
    ++hits;
  });
  rt.run([&](Process& p) {
    if (p.rank() == 0) {
      p.am_send(1, handler, Payload(100));
    } else {
      while (hits == 0) p.progress_blocking();
    }
  });
  EXPECT_EQ(hits, 1);
}

TEST(BtlRaw, MessagesFromOneSenderArriveInOrder) {
  Runtime rt(raw_world(2, 1 << 30));
  std::vector<int> seen;
  const int handler = rt.register_handler([&](Process&, AmMessage& m) {
    int v;
    std::memcpy(&v, m.payload.data(), 4);
    seen.push_back(v);
  });
  rt.run([&](Process& p) {
    if (p.rank() == 0) {
      for (int i = 0; i < 50; ++i) {
        Payload payload(4);
        std::memcpy(payload.data(), &i, 4);
        p.am_send(1, handler, std::move(payload));
      }
    } else {
      while (seen.size() < 50) p.progress_blocking();
    }
  });
  for (int i = 0; i < 50; ++i) EXPECT_EQ(seen[static_cast<std::size_t>(i)], i);
}

TEST(BtlRaw, EarliestDependencyDelaysArrival) {
  Runtime rt(raw_world(2, 1 << 30));
  vt::Time arrival = 0;
  const int handler = rt.register_handler(
      [&](Process&, AmMessage& m) { arrival = m.arrival; });
  rt.run([&](Process& p) {
    if (p.rank() == 0) {
      p.am_send(1, handler, Payload(16), vt::msec(3));
    } else {
      while (arrival == 0) p.progress_blocking();
    }
  });
  EXPECT_GE(arrival, vt::msec(3));
}

TEST(BtlRaw, IbLinkSlowerThanSmChannel) {
  auto measure = [](int per_node) {
    Runtime rt(raw_world(2, per_node));
    vt::Time arrival = 0;
    const int handler = rt.register_handler(
        [&](Process&, AmMessage& m) { arrival = m.arrival; });
    rt.run([&](Process& p) {
      if (p.rank() == 0) {
        p.am_send(1, handler, Payload(1 << 20));
      } else {
        while (arrival == 0) p.progress_blocking();
      }
    });
    return arrival;
  };
  const vt::Time sm = measure(1 << 30);  // same node
  const vt::Time ib = measure(1);        // different nodes
  EXPECT_GT(ib, sm);  // 5.8 GB/s IB vs 6 GB/s SM plus latency gap
}

TEST(BtlRaw, RdmaGetMovesDeviceBytesOneSided) {
  Runtime rt(raw_world(2, 1 << 30));
  std::byte* remote_buf = nullptr;
  bool ready = false;
  rt.run([&](Process& p) {
    if (p.rank() == 0) {
      remote_buf = static_cast<std::byte*>(sg::Malloc(p.gpu(), 4096));
      test::fill_pattern(remote_buf, 4096, 42);
      ready = true;
      // Keep rank 0 alive while rank 1 reads (one-sided!).
      Comm(p).barrier();
    } else {
      // The event loop dispatches rank 0 first, so it has filled the
      // buffer and parked in its barrier by now.
      ASSERT_TRUE(ready);
      auto* local = static_cast<std::byte*>(sg::Malloc(p.gpu(), 4096));
      Btl& btl = p.runtime().btl_between(1, 0);
      const vt::Time t = btl.rdma_get(p, 0, local, remote_buf, 4096,
                                      p.clock().now());
      EXPECT_GT(t, 0);
      std::vector<std::byte> expect(4096);
      test::fill_pattern(expect.data(), 4096, 42);
      EXPECT_EQ(std::memcmp(local, expect.data(), 4096), 0);
      Comm(p).barrier();
    }
  });
}

TEST(BtlRaw, MultiRailDistributesLargeMessages) {
  // With 2 rails, two back-to-back large sends reserve different links,
  // so the second's arrival is NOT after the first's.
  auto measure = [](int rails) {
    RuntimeConfig cfg = raw_world(2, 1);
    cfg.ib_rails = rails;
    Runtime rt(cfg);
    std::vector<vt::Time> arrivals;
    const int handler = rt.register_handler(
        [&](Process&, AmMessage& m) { arrivals.push_back(m.arrival); });
    rt.run([&](Process& p) {
      if (p.rank() == 0) {
        p.am_send(1, handler, Payload(1 << 20));
        p.am_send(1, handler, Payload(1 << 20));
      } else {
        while (arrivals.size() < 2) p.progress_blocking();
      }
    });
    return arrivals;
  };
  const auto serial = measure(1);
  const auto railed = measure(2);
  // One rail: strictly serialized. Two rails: near-simultaneous arrivals.
  EXPECT_GT(serial[1], serial[0]);
  EXPECT_LT(railed[1] - railed[0], serial[1] - serial[0]);
}

TEST(BtlRaw, SmallControlMessagesStayOnRailZero) {
  // Many small messages with rails=4 remain strictly ordered in virtual
  // time (they all serialize on rail 0).
  RuntimeConfig cfg = raw_world(2, 1);
  cfg.ib_rails = 4;
  Runtime rt(cfg);
  std::vector<vt::Time> arrivals;
  const int handler = rt.register_handler(
      [&](Process&, AmMessage& m) { arrivals.push_back(m.arrival); });
  rt.run([&](Process& p) {
    if (p.rank() == 0) {
      for (int i = 0; i < 10; ++i)
        p.am_send(1, handler, Payload(64));
    } else {
      while (arrivals.size() < 10) p.progress_blocking();
    }
  });
  for (std::size_t i = 1; i < arrivals.size(); ++i)
    EXPECT_GT(arrivals[i], arrivals[i - 1]);
}

TEST(Bml, RoutesByNodeTopology) {
  RuntimeConfig cfg = raw_world(4, 2);
  Runtime rt(cfg);
  Bml& bml = rt.bml();
  EXPECT_STREQ(bml.between(0, 1).name(), "sm");  // same node
  EXPECT_STREQ(bml.between(2, 3).name(), "sm");
  EXPECT_STREQ(bml.between(0, 2).name(), "ib");  // across nodes
  EXPECT_STREQ(bml.between(3, 0).name(), "ib");
}

TEST(Bml, GpuRdmaCapabilityPerBtl) {
  RuntimeConfig cfg = raw_world(4, 2);
  cfg.ipc_enabled = true;
  cfg.gpudirect_rdma = false;
  Runtime rt(cfg);
  rt.run([&](Process& p) {
    if (p.rank() != 0) return;
    EXPECT_TRUE(p.runtime().btl_between(0, 1).supports_gpu_rdma(p, 1));
    EXPECT_FALSE(p.runtime().btl_between(0, 2).supports_gpu_rdma(p, 2));
  });
}

}  // namespace
}  // namespace gpuddt::mpi

// Host-path MPI tests: matching, eager/rendezvous, datatypes on the wire,
// wildcards, barrier, multi-rank traffic. No GPU involvement.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "core/layouts.h"
#include "mpi/btl.h"
#include "mpi/pml.h"
#include "mpi/runtime.h"
#include "test_helpers.h"

namespace gpuddt::mpi {
namespace {

RuntimeConfig small_world(int n = 2) {
  RuntimeConfig cfg;
  cfg.world_size = n;
  cfg.machine.num_devices = 2;
  cfg.machine.device_memory_bytes = 64 << 20;
  return cfg;
}

TEST(MpiHost, EagerSendRecvInts) {
  Runtime rt(small_world());
  rt.run([](Process& p) {
    Comm comm(p);
    std::vector<std::int32_t> buf(128);
    if (p.rank() == 0) {
      std::iota(buf.begin(), buf.end(), 0);
      comm.send(buf.data(), 128, kInt32(), 1, 7);
    } else {
      const Status st = comm.recv(buf.data(), 128, kInt32(), 0, 7);
      EXPECT_EQ(st.source, 0);
      EXPECT_EQ(st.tag, 7);
      EXPECT_EQ(st.bytes, 512);
      for (int i = 0; i < 128; ++i) EXPECT_EQ(buf[i], i);
    }
  });
}

TEST(MpiHost, RendezvousLargeMessage) {
  Runtime rt(small_world());
  rt.run([](Process& p) {
    Comm comm(p);
    const std::int64_t n = 1 << 20;  // 4 MB of int32 > eager limit
    std::vector<std::int32_t> buf(static_cast<std::size_t>(n));
    if (p.rank() == 0) {
      for (std::int64_t i = 0; i < n; ++i)
        buf[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(i * 3);
      comm.send(buf.data(), n, kInt32(), 1, 1);
    } else {
      comm.recv(buf.data(), n, kInt32(), 0, 1);
      for (std::int64_t i = 0; i < n; i += 997)
        EXPECT_EQ(buf[static_cast<std::size_t>(i)],
                  static_cast<std::int32_t>(i * 3));
    }
  });
}

TEST(MpiHost, NonContiguousVectorRoundTrip) {
  Runtime rt(small_world());
  rt.run([](Process& p) {
    Comm comm(p);
    auto dt = Datatype::vector(64, 2, 4, kDouble());
    std::vector<double> buf(64 * 4);
    if (p.rank() == 0) {
      for (std::size_t i = 0; i < buf.size(); ++i)
        buf[i] = static_cast<double>(i);
      comm.send(buf.data(), 1, dt, 1, 0);
    } else {
      std::fill(buf.begin(), buf.end(), -1.0);
      comm.recv(buf.data(), 1, dt, 0, 0);
      for (std::size_t i = 0; i < buf.size() - 2; ++i) {
        const bool in_block = (i % 4) < 2;
        EXPECT_EQ(buf[i], in_block ? static_cast<double>(i) : -1.0) << i;
      }
    }
  });
}

TEST(MpiHost, SenderVectorToReceiverContiguous) {
  Runtime rt(small_world());
  rt.run([](Process& p) {
    Comm comm(p);
    auto vec = Datatype::vector(32, 1, 2, kInt32());
    if (p.rank() == 0) {
      std::vector<std::int32_t> buf(64);
      for (int i = 0; i < 64; ++i) buf[static_cast<std::size_t>(i)] = i;
      comm.send(buf.data(), 1, vec, 1, 0);
    } else {
      std::vector<std::int32_t> out(32, -1);
      comm.recv(out.data(), 32, kInt32(), 0, 0);
      for (int i = 0; i < 32; ++i)
        EXPECT_EQ(out[static_cast<std::size_t>(i)], 2 * i);
    }
  });
}

TEST(MpiHost, TriangularRendezvousRoundTrip) {
  Runtime rt(small_world());
  rt.run([](Process& p) {
    Comm comm(p);
    const std::int64_t n = 192;  // > eager limit once packed
    auto dt = core::lower_triangular_type(n, n);
    std::vector<std::byte> buf(static_cast<std::size_t>(n * n * 8));
    if (p.rank() == 0) {
      test::fill_pattern(buf.data(), buf.size(), 21);
      comm.send(buf.data(), 1, dt, 1, 3);
      auto ref = test::reference_pack(dt, 1, buf.data());
      // Receiver repacks identically (checked there).
    } else {
      comm.recv(buf.data(), 1, dt, 0, 3);
      std::vector<std::byte> expected(buf.size());
      test::fill_pattern(expected.data(), expected.size(), 21);
      EXPECT_EQ(test::reference_pack(dt, 1, buf.data()),
                test::reference_pack(dt, 1, expected.data()));
    }
  });
}

TEST(MpiHost, UnexpectedMessagesMatchInOrder) {
  Runtime rt(small_world());
  rt.run([](Process& p) {
    Comm comm(p);
    int a = 0, b = 0;
    if (p.rank() == 0) {
      a = 11;
      b = 22;
      comm.send(&a, 1, kInt32(), 1, 5);
      comm.send(&b, 1, kInt32(), 1, 5);
    } else {
      comm.barrier();  // let both messages land unexpected
      comm.recv(&a, 1, kInt32(), 0, 5);
      comm.recv(&b, 1, kInt32(), 0, 5);
      EXPECT_EQ(a, 11);
      EXPECT_EQ(b, 22);
    }
    if (p.rank() == 0) comm.barrier();
  });
}

TEST(MpiHost, WildcardSourceAndTag) {
  Runtime rt(small_world(3));
  rt.run([](Process& p) {
    Comm comm(p);
    if (p.rank() != 0) {
      int v = p.rank() * 100;
      comm.send(&v, 1, kInt32(), 0, p.rank());
    } else {
      int seen = 0;
      for (int i = 0; i < 2; ++i) {
        int v = 0;
        const Status st = comm.recv(&v, 1, kInt32(), kAnySource, kAnyTag);
        EXPECT_EQ(v, st.source * 100);
        EXPECT_EQ(st.tag, st.source);
        seen += v;
      }
      EXPECT_EQ(seen, 300);
    }
  });
}

TEST(MpiHost, IsendIrecvWaitall) {
  Runtime rt(small_world());
  rt.run([](Process& p) {
    Comm comm(p);
    constexpr int kN = 8;
    std::vector<std::vector<std::int32_t>> bufs(kN,
                                                std::vector<std::int32_t>(64));
    std::vector<Request> reqs;
    if (p.rank() == 0) {
      for (int i = 0; i < kN; ++i) {
        std::fill(bufs[i].begin(), bufs[i].end(), i);
        reqs.push_back(comm.isend(bufs[i].data(), 64, kInt32(), 1, i));
      }
    } else {
      for (int i = 0; i < kN; ++i)
        reqs.push_back(comm.irecv(bufs[i].data(), 64, kInt32(), 0, i));
    }
    comm.waitall(reqs);
    if (p.rank() == 1) {
      for (int i = 0; i < kN; ++i)
        for (int v : bufs[i]) EXPECT_EQ(v, i);
    }
  });
}

TEST(MpiHost, ExchangeBothDirectionsNoDeadlock) {
  Runtime rt(small_world());
  rt.run([](Process& p) {
    Comm comm(p);
    const std::int64_t n = 1 << 19;  // rendezvous-sized
    std::vector<std::byte> out(static_cast<std::size_t>(n)),
        in(static_cast<std::size_t>(n));
    test::fill_pattern(out.data(), out.size(), p.rank());
    Request r = comm.irecv(in.data(), n, kByte(), 1 - p.rank(), 0);
    Request s = comm.isend(out.data(), n, kByte(), 1 - p.rank(), 0);
    comm.wait(r);
    comm.wait(s);
    std::vector<std::byte> expect(static_cast<std::size_t>(n));
    test::fill_pattern(expect.data(), expect.size(), 1 - p.rank());
    EXPECT_EQ(std::memcmp(in.data(), expect.data(), expect.size()), 0);
  });
}

TEST(MpiHost, BarrierSynchronizesAllRanks) {
  Runtime rt(small_world(5));
  int before = 0, after = 0;
  rt.run([&](Process& p) {
    Comm comm(p);
    ++before;
    comm.barrier();
    // Every rank must have entered before any leaves.
    EXPECT_EQ(before, 5);
    ++after;
  });
  EXPECT_EQ(after, 5);
}

TEST(MpiHost, ZeroByteMessage) {
  Runtime rt(small_world());
  rt.run([](Process& p) {
    Comm comm(p);
    char token = 0;
    if (p.rank() == 0) {
      comm.send(&token, 0, kByte(), 1, 9);
    } else {
      const Status st = comm.recv(&token, 0, kByte(), 0, 9);
      EXPECT_EQ(st.bytes, 0);
    }
  });
}

TEST(MpiHost, ReceiveLargerBufferThanMessage) {
  Runtime rt(small_world());
  rt.run([](Process& p) {
    Comm comm(p);
    std::vector<std::int32_t> buf(64, -1);
    if (p.rank() == 0) {
      comm.send(buf.data(), 8, kInt32(), 1, 0);
    } else {
      const Status st = comm.recv(buf.data(), 64, kInt32(), 0, 0);
      EXPECT_EQ(st.bytes, 32);
    }
  });
}

TEST(MpiHost, InterNodeTrafficUsesIbBtl) {
  RuntimeConfig cfg = small_world();
  cfg.ranks_per_node = 1;  // ranks 0 and 1 on different nodes
  Runtime rt(cfg);
  rt.run([](Process& p) {
    EXPECT_EQ(p.node(), p.rank());
    Comm comm(p);
    const std::int64_t n = 1 << 20;
    std::vector<std::byte> buf(static_cast<std::size_t>(n));
    if (p.rank() == 0) {
      test::fill_pattern(buf.data(), buf.size(), 55);
      comm.send(buf.data(), n, kByte(), 1, 0);
    } else {
      comm.recv(buf.data(), n, kByte(), 0, 0);
      std::vector<std::byte> expect(static_cast<std::size_t>(n));
      test::fill_pattern(expect.data(), expect.size(), 55);
      EXPECT_EQ(std::memcmp(buf.data(), expect.data(), expect.size()), 0);
      // Wire time for 1MB at IB rates is far above SM rates.
      EXPECT_GT(p.clock().now(), vt::usec(150));
    }
  });
}

TEST(MpiHost, ManyRanksRing) {
  Runtime rt(small_world(6));
  rt.run([](Process& p) {
    Comm comm(p);
    const int next = (p.rank() + 1) % p.size();
    const int prev = (p.rank() - 1 + p.size()) % p.size();
    int token = p.rank();
    int got = -1;
    Request r = comm.irecv(&got, 1, kInt32(), prev, 0);
    Request s = comm.isend(&token, 1, kInt32(), next, 0);
    comm.wait(r);
    comm.wait(s);
    EXPECT_EQ(got, prev);
  });
}

TEST(MpiHost, VirtualClocksAdvanceWithTraffic) {
  Runtime rt(small_world());
  rt.run([](Process& p) {
    Comm comm(p);
    const std::int64_t n = 8 << 20;
    std::vector<std::byte> buf(static_cast<std::size_t>(n));
    if (p.rank() == 0) {
      comm.send(buf.data(), n, kByte(), 1, 0);
    } else {
      comm.recv(buf.data(), n, kByte(), 0, 0);
      // 8MB at ~6 GB/s SM + packing costs: at least 1 ms of virtual time.
      EXPECT_GT(p.clock().now(), vt::msec(1));
      EXPECT_LT(p.clock().now(), vt::msec(100));
    }
  });
}

TEST(MpiHost, RuntimeRejectsSecondRun) {
  Runtime rt(small_world());
  rt.run([](Process&) {});
  EXPECT_THROW(rt.run([](Process&) {}), std::logic_error);
}

TEST(MpiHost, DeviceSendWithoutPluginThrows) {
  Runtime rt(small_world());
  EXPECT_THROW(rt.run([](Process& p) {
                 Comm comm(p);
                 void* dev = sg::Malloc(p.gpu(), 1 << 20);
                 if (p.rank() == 0) {
                   comm.send(dev, 1 << 18, kInt32(), 1, 0);
                 } else {
                   comm.recv(dev, 1 << 18, kInt32(), 0, 0);
                 }
               }),
               std::runtime_error);
}

// A rendezvous fragment stream must deliver the size its RTS announced:
// one whose last fragment arrives short of it is an error, not a short
// message. Rank 0 plays the sender by hand: an RTS for 4096 bytes, then
// one last fragment of 1024.
TEST(MpiHost, FragmentStreamEndingShortOfRtsThrows) {
  Runtime rt(small_world());
  try {
    rt.run([](Process& p) {
      if (p.rank() == 0) {
        RtsHeader rts;
        rts.env = Envelope{0, 0, 1, 7};
        rts.send_id = 1;
        rts.total_bytes = 4096;
        std::vector<std::byte> msg(sizeof(rts));
        std::memcpy(msg.data(), &rts, sizeof(rts));
        p.am_send(1, Pml::rts_handler(), std::move(msg));
        FragHeader frag;
        frag.recv_id = 1;  // rank 1's first request
        frag.bytes = 1024;
        frag.last = 1;
        msg.assign(sizeof(frag) + 1024, std::byte{0});
        std::memcpy(msg.data(), &frag, sizeof(frag));
        p.am_send(1, Pml::frag_handler(), std::move(msg));
        return;  // the CTS stays unread
      }
      std::vector<std::byte> buf(4096);
      Comm(p).recv(buf.data(), 4096, kByte(), 0, 7);
    });
    ADD_FAILURE() << "the short fragment stream completed";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "PML: fragment stream size mismatch");
  }
}

}  // namespace
}  // namespace gpuddt::mpi

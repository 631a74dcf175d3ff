// Collective operations: correctness on host and device buffers, with
// contiguous and derived datatypes, across world sizes (including
// non-powers of two) and topologies.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "core/layouts.h"
#include "mpi/coll.h"
#include "mpi/runtime.h"
#include "protocols/gpu_plugin.h"
#include "test_helpers.h"

namespace gpuddt::mpi {
namespace {

RuntimeConfig world(int n, int ranks_per_node = 1 << 30) {
  RuntimeConfig cfg;
  cfg.world_size = n;
  cfg.ranks_per_node = ranks_per_node;
  cfg.machine.num_devices = 2;
  cfg.machine.device_memory_bytes = 256u << 20;
  return cfg;
}

void with_plugin(Runtime& rt) {
  rt.set_gpu_plugin(std::make_shared<proto::GpuDatatypePlugin>());
}

class CollWorldSize : public ::testing::TestWithParam<int> {};

TEST_P(CollWorldSize, BcastHostInts) {
  Runtime rt(world(GetParam()));
  rt.run([](Process& p) {
    Collectives coll(Comm{p});
    std::vector<std::int32_t> buf(1000, -1);
    if (p.rank() == 2 % p.size())
      std::iota(buf.begin(), buf.end(), 100);
    coll.bcast(buf.data(), 1000, kInt32(), 2 % p.size());
    for (int i = 0; i < 1000; ++i) EXPECT_EQ(buf[i], 100 + i);
  });
}

TEST_P(CollWorldSize, GatherScatterRoundTrip) {
  const int n = GetParam();
  Runtime rt(world(n));
  rt.run([n](Process& p) {
    Collectives coll(Comm{p});
    constexpr std::int64_t kCount = 256;
    std::vector<std::int64_t> mine(kCount, p.rank());
    std::vector<std::int64_t> all(kCount * n, -1);
    coll.gather(mine.data(), all.data(), kCount, kInt64(), 0);
    if (p.rank() == 0) {
      for (int r = 0; r < n; ++r)
        for (std::int64_t i = 0; i < kCount; ++i)
          EXPECT_EQ(all[r * kCount + i], r);
      // Mutate and scatter back.
      for (auto& v : all) v += 1000;
    }
    std::vector<std::int64_t> back(kCount, -1);
    coll.scatter(all.data(), back.data(), kCount, kInt64(), 0);
    for (std::int64_t i = 0; i < kCount; ++i)
      EXPECT_EQ(back[i], p.rank() + 1000);
  });
}

TEST_P(CollWorldSize, AllgatherOrdersBlocks) {
  const int n = GetParam();
  Runtime rt(world(n));
  rt.run([n](Process& p) {
    Collectives coll(Comm{p});
    constexpr std::int64_t kCount = 128;
    std::vector<double> mine(kCount, p.rank() + 0.5);
    std::vector<double> all(kCount * n, -1);
    coll.allgather(mine.data(), all.data(), kCount, kDouble());
    for (int r = 0; r < n; ++r)
      for (std::int64_t i = 0; i < kCount; ++i)
        EXPECT_EQ(all[r * kCount + i], r + 0.5);
  });
}

TEST_P(CollWorldSize, AlltoallPermutesBlocks) {
  const int n = GetParam();
  Runtime rt(world(n));
  rt.run([n](Process& p) {
    Collectives coll(Comm{p});
    constexpr std::int64_t kCount = 64;
    std::vector<std::int32_t> out(kCount * n), in(kCount * n, -1);
    for (int r = 0; r < n; ++r)
      for (std::int64_t i = 0; i < kCount; ++i)
        out[r * kCount + i] = p.rank() * 1000 + r;  // destined for rank r
    coll.alltoall(out.data(), in.data(), kCount, kInt32());
    for (int r = 0; r < n; ++r)
      for (std::int64_t i = 0; i < kCount; ++i)
        EXPECT_EQ(in[r * kCount + i], r * 1000 + p.rank());
  });
}

TEST_P(CollWorldSize, ReduceSumDoubles) {
  const int n = GetParam();
  Runtime rt(world(n));
  rt.run([n](Process& p) {
    Collectives coll(Comm{p});
    constexpr std::int64_t kCount = 500;
    std::vector<double> mine(kCount);
    for (std::int64_t i = 0; i < kCount; ++i)
      mine[i] = p.rank() * 1.0 + i;
    std::vector<double> result(kCount, -1);
    coll.reduce(mine.data(), result.data(), kCount, kDouble(),
                ReduceOp::kSum, 0);
    if (p.rank() == 0) {
      const double rank_sum = n * (n - 1) / 2.0;
      for (std::int64_t i = 0; i < kCount; ++i)
        EXPECT_DOUBLE_EQ(result[i], rank_sum + n * static_cast<double>(i));
    }
  });
}

TEST_P(CollWorldSize, AllreduceMaxInts) {
  const int n = GetParam();
  Runtime rt(world(n));
  rt.run([n](Process& p) {
    Collectives coll(Comm{p});
    std::int32_t mine = 10 + p.rank();
    std::int32_t result = -1;
    coll.allreduce(&mine, &result, 1, kInt32(), ReduceOp::kMax);
    EXPECT_EQ(result, 10 + n - 1);
  });
}

// Each rank holds the same n doubles in its own layout: even ranks as a
// dense kDouble x n block, odd ranks as one vector(n, 1, 2, kDouble) over
// 2n doubles. Inside one collective a contiguous side then sends and
// receives its blocks as one run of bytes while a strided side walks its
// own layout. A buffer of several blocks places block b at b x count
// elements, as the collectives do.
class RankLayout {
 public:
  RankLayout(int rank, std::int64_t n)
      : n_(n),
        strided_(rank % 2 == 1),
        count_(strided_ ? 1 : n),
        dt_(strided_ ? Datatype::vector(n, 1, 2, kDouble()) : kDouble()),
        block_doubles_(count_ * dt_->extent() / 8) {}

  std::int64_t count() const { return count_; }
  const DatatypePtr& dt() const { return dt_; }

  /// A buffer of `blocks` blocks holding `value(b, j)` as element j of
  /// block b, and -1 in every double no element covers.
  template <typename F>
  std::vector<double> buffer(int blocks, F value) const {
    std::vector<double> v(
        static_cast<std::size_t>(blocks * block_doubles_ + 1), -1.0);
    for (int b = 0; b < blocks; ++b)
      for (std::int64_t j = 0; j < n_; ++j)
        v[static_cast<std::size_t>(b * block_doubles_ +
                                   (strided_ ? 2 * j : j))] = value(b, j);
    return v;
  }
  std::vector<double> empty(int blocks) const {
    return buffer(blocks, [](int, std::int64_t) { return -1.0; });
  }

 private:
  std::int64_t n_;
  bool strided_;
  std::int64_t count_;
  DatatypePtr dt_;
  std::int64_t block_doubles_;
};

TEST_P(CollWorldSize, PerRankLayoutsInOneCollective) {
  const int n = GetParam();
  Runtime rt(world(n));
  with_plugin(rt);
  rt.run([n](Process& p) {
    Collectives coll(Comm{p});
    const int me = p.rank();
    // Sums of these stay exact in double.
    const auto val = [](int a, int b, std::int64_t j) {
      return a * 1.0e7 + b * 1.0e5 + static_cast<double>(j);
    };
    // 96 doubles travel eager; 12288 (96 KiB) by rendezvous; 81920
    // (640 KiB) in two fragments cut inside the layout, which only the
    // bcasts cover.
    for (const std::int64_t len : {96, 12288, 81920}) {
      SCOPED_TRACE("n = " + std::to_string(len));
      const RankLayout lay(me, len);
      for (const int root : {0, n - 1}) {
        SCOPED_TRACE("root " + std::to_string(root));
        const auto from_root = [&](int, std::int64_t j) {
          return val(root, 0, j);
        };
        auto buf = me == root ? lay.buffer(1, from_root) : lay.empty(1);
        coll.bcast(buf.data(), lay.count(), lay.dt(), root);
        EXPECT_EQ(buf, lay.buffer(1, from_root));
        if (len > 12288) continue;

        const auto mine = [&](int, std::int64_t j) { return val(me, 0, j); };
        auto all = lay.empty(me == root ? n : 0);
        coll.gather(lay.buffer(1, mine).data(), all.data(), lay.count(),
                    lay.dt(), root);
        if (me == root) {
          EXPECT_EQ(all, lay.buffer(n, [&](int b, std::int64_t j) {
            return val(b, 0, j);
          }));
        }

        const auto to_rank = [&](int b, std::int64_t j) {
          return val(root, b, j);
        };
        const auto out = me == root ? lay.buffer(n, to_rank) : lay.empty(0);
        auto back = lay.empty(1);
        coll.scatter(out.data(), back.data(), lay.count(), lay.dt(), root);
        EXPECT_EQ(back, lay.buffer(1, [&](int, std::int64_t j) {
          return val(root, me, j);
        }));

        auto sum = lay.empty(1);
        coll.reduce(lay.buffer(1, mine).data(), sum.data(), lay.count(),
                    lay.dt(), ReduceOp::kSum, root);
        const auto total = [&](int, std::int64_t j) {
          return val(0, 0, j) * n + 1.0e7 * n * (n - 1) / 2;
        };
        EXPECT_EQ(sum, me == root ? lay.buffer(1, total) : lay.empty(1));
        sum = lay.empty(1);
        coll.allreduce(lay.buffer(1, mine).data(), sum.data(), lay.count(),
                       lay.dt(), ReduceOp::kSum);
        EXPECT_EQ(sum, lay.buffer(1, total));
      }
      if (len > 12288) continue;

      auto gathered = lay.empty(n);
      coll.allgather(
          lay.buffer(1, [&](int, std::int64_t j) { return val(me, 0, j); })
              .data(),
          gathered.data(), lay.count(), lay.dt());
      EXPECT_EQ(gathered, lay.buffer(n, [&](int b, std::int64_t j) {
        return val(b, 0, j);
      }));

      auto got = lay.empty(n);
      coll.alltoall(
          lay.buffer(n, [&](int b, std::int64_t j) { return val(me, b, j); })
              .data(),
          got.data(), lay.count(), lay.dt());
      EXPECT_EQ(got, lay.buffer(n, [&](int b, std::int64_t j) {
        return val(b, me, j);
      }));

      // Device buffers: the GPU protocol plugin moves the same blocks.
      const auto from_root = [&](int, std::int64_t j) { return val(0, 0, j); };
      const auto host = me == 0 ? lay.buffer(1, from_root) : lay.empty(1);
      const std::size_t bytes = host.size() * sizeof(double);
      void* dev = sg::Malloc(p.gpu(), bytes);
      std::memcpy(dev, host.data(), bytes);
      coll.bcast(dev, lay.count(), lay.dt(), 0);
      std::vector<double> landed(host.size());
      std::memcpy(landed.data(), dev, bytes);
      EXPECT_EQ(landed, lay.buffer(1, from_root));
      sg::Free(p.gpu(), dev);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, CollWorldSize, ::testing::Values(1, 2, 3, 5, 8));

TEST(Collectives, BcastDeviceTriangular) {
  Runtime rt(world(3));
  with_plugin(rt);
  rt.run([](Process& p) {
    Collectives coll(Comm{p});
    const std::int64_t n = 96;
    auto dt = core::lower_triangular_type(n, n);
    auto* buf = static_cast<std::byte*>(
        sg::Malloc(p.gpu(), static_cast<std::size_t>(n * n * 8)));
    std::memset(buf, 0, static_cast<std::size_t>(n * n * 8));
    if (p.rank() == 0)
      test::fill_pattern(buf, static_cast<std::size_t>(n * n * 8), 66);
    coll.bcast(buf, 1, dt, 0);
    std::vector<std::byte> expect(static_cast<std::size_t>(n * n * 8));
    test::fill_pattern(expect.data(), expect.size(), 66);
    EXPECT_EQ(test::reference_pack(dt, 1, buf),
              test::reference_pack(dt, 1, expect.data()));
  });
}

TEST(Collectives, AllgatherDeviceVectors) {
  Runtime rt(world(4));
  with_plugin(rt);
  rt.run([](Process& p) {
    Collectives coll(Comm{p});
    // Each rank contributes a strided column block, gathered densely:
    // signature-compatible send/recv types per block.
    const std::int64_t rows = 64, cols = 8, ld = 96;
    auto vec = core::submatrix_type(rows, cols, ld);
    auto* mine = static_cast<double*>(
        sg::Malloc(p.gpu(), static_cast<std::size_t>(ld * cols * 8)));
    for (std::int64_t j = 0; j < cols; ++j)
      for (std::int64_t i = 0; i < rows; ++i)
        mine[j * ld + i] = p.rank() * 10000.0 + j * 100.0 + i;
    auto* all = static_cast<double*>(sg::Malloc(
        p.gpu(), static_cast<std::size_t>(rows * cols * 8 * p.size())));
    // Gather as packed blocks: reuse allgather with the vector type on
    // the send side by first packing locally via a self-transfer. For the
    // collective itself, blocks travel as (vec) -> placed by extent; use
    // a dense type on the recv side of the same signature per block is
    // not expressible in this allgather signature, so exchange dense:
    // pack explicitly first.
    auto* packed = static_cast<double*>(sg::Malloc(
        p.gpu(), static_cast<std::size_t>(rows * cols * 8)));
    auto* plugin =
        dynamic_cast<proto::GpuDatatypePlugin*>(p.runtime().gpu_plugin());
    ASSERT_NE(plugin, nullptr);
    std::int64_t pos = 0;
    plugin->pack(p, mine, 1, vec,
                 std::span<std::byte>(reinterpret_cast<std::byte*>(packed),
                                      static_cast<std::size_t>(rows * cols * 8)),
                 &pos);
    coll.allgather(packed, all, rows * cols, kDouble());
    for (int r = 0; r < p.size(); ++r) {
      const double* blk = all + r * rows * cols;
      for (std::int64_t j = 0; j < cols; ++j)
        for (std::int64_t i = 0; i < rows; ++i)
          EXPECT_EQ(blk[j * rows + i], r * 10000.0 + j * 100.0 + i);
    }
  });
}

TEST(Collectives, WorksAcrossNodes) {
  Runtime rt(world(4, /*ranks_per_node=*/2));
  rt.run([](Process& p) {
    Collectives coll(Comm{p});
    std::int64_t v = p.rank() + 1;
    std::int64_t sum = 0;
    coll.allreduce(&v, &sum, 1, kInt64(), ReduceOp::kSum);
    EXPECT_EQ(sum, 1 + 2 + 3 + 4);
  });
}

TEST(Collectives, ReduceRejectsMixedTypes) {
  Runtime rt(world(2));
  rt.run([](Process& p) {
    Collectives coll(Comm{p});
    const std::int64_t lens[] = {1, 1};
    const std::int64_t displs[] = {0, 8};
    const DatatypePtr types[] = {kInt32(), kDouble()};
    auto mixed = Datatype::struct_type(lens, displs, types);
    std::byte in[32], out[32];
    EXPECT_THROW(coll.reduce(in, out, 1, mixed, ReduceOp::kSum, 0),
                 std::invalid_argument);
  });
}

TEST(Collectives, BackToBackCollectivesDoNotCrossMatch) {
  Runtime rt(world(4));
  rt.run([](Process& p) {
    Collectives coll(Comm{p});
    for (int round = 0; round < 5; ++round) {
      std::int32_t v = p.rank() + round;
      std::int32_t mx = -1;
      coll.allreduce(&v, &mx, 1, kInt32(), ReduceOp::kMax);
      EXPECT_EQ(mx, 3 + round);
    }
  });
}

}  // namespace
}  // namespace gpuddt::mpi

namespace gpuddt::mpi {
namespace {

// --- Communicator split ----------------------------------------------------------

TEST(CommSplit, EvenOddGroupsExchangeIndependently) {
  Runtime rt(world(6));
  rt.run([](Process& p) {
    Comm comm(p);
    Comm sub = comm.split(p.rank() % 2, p.rank());
    EXPECT_EQ(sub.size(), 3);
    EXPECT_EQ(sub.rank(), p.rank() / 2);
    EXPECT_EQ(sub.world_rank(sub.rank()), p.rank());
    // Ring within the sub-communicator.
    const int next = (sub.rank() + 1) % sub.size();
    const int prev = (sub.rank() - 1 + sub.size()) % sub.size();
    int token = 100 * (p.rank() % 2) + sub.rank();
    int got = -1;
    Request r = sub.irecv(&got, 1, kInt32(), prev, 0);
    Request s = sub.isend(&token, 1, kInt32(), next, 0);
    sub.wait(r);
    sub.wait(s);
    EXPECT_EQ(got, 100 * (p.rank() % 2) + prev);
  });
}

TEST(CommSplit, KeyControlsOrdering) {
  Runtime rt(world(4));
  rt.run([](Process& p) {
    Comm comm(p);
    // Reverse the rank order via the key.
    Comm sub = comm.split(0, p.size() - p.rank());
    EXPECT_EQ(sub.rank(), p.size() - 1 - p.rank());
    EXPECT_EQ(sub.world_rank(sub.rank()), p.rank());
  });
}

TEST(CommSplit, CollectivesWorkOnSubComm) {
  Runtime rt(world(6));
  rt.run([](Process& p) {
    Comm comm(p);
    Comm sub = comm.split(p.rank() < 4 ? 0 : 1, p.rank());
    Collectives coll(sub);
    std::int64_t v = p.rank();
    std::int64_t sum = 0;
    coll.allreduce(&v, &sum, 1, kInt64(), ReduceOp::kSum);
    EXPECT_EQ(sum, p.rank() < 4 ? 0 + 1 + 2 + 3 : 4 + 5);
  });
}

TEST(CommSplit, WildcardSourceReturnsGroupRank) {
  Runtime rt(world(4));
  rt.run([](Process& p) {
    Comm comm(p);
    Comm sub = comm.split(p.rank() % 2, p.rank());
    if (sub.rank() == 1) {
      int v = 77;
      sub.send(&v, 1, kInt32(), 0, 9);
    } else if (sub.rank() == 0) {
      int v = 0;
      const Status st = sub.recv(&v, 1, kInt32(), kAnySource, 9);
      EXPECT_EQ(v, 77);
      EXPECT_EQ(st.source, 1);  // group rank, not world rank
    }
  });
}

TEST(CommSplit, ParentAndChildTrafficDoNotCrossMatch) {
  Runtime rt(world(2));
  rt.run([](Process& p) {
    Comm comm(p);
    Comm sub = comm.split(0, p.rank());
    // Same peer, same tag, different communicators.
    int a = -1, b = -1;
    if (p.rank() == 0) {
      int x = 1, y = 2;
      Request s1 = comm.isend(&x, 1, kInt32(), 1, 5);
      Request s2 = sub.isend(&y, 1, kInt32(), 1, 5);
      comm.wait(s1);
      sub.wait(s2);
    } else {
      // Receive the sub-communicator's message FIRST: it must not match
      // the world message even though (src, tag) are identical.
      sub.recv(&b, 1, kInt32(), 0, 5);
      comm.recv(&a, 1, kInt32(), 0, 5);
      EXPECT_EQ(a, 1);
      EXPECT_EQ(b, 2);
    }
  });
}

TEST(CommSplit, DupIsolatesTraffic) {
  Runtime rt(world(2));
  rt.run([](Process& p) {
    Comm comm(p);
    Comm copy = comm.dup();
    EXPECT_EQ(copy.rank(), comm.rank());
    EXPECT_EQ(copy.size(), comm.size());
    // Same (src, tag) on both comms: must not cross-match.
    if (p.rank() == 0) {
      int x = 5, y = 6;
      comm.send(&x, 1, kInt32(), 1, 3);
      copy.send(&y, 1, kInt32(), 1, 3);
    } else {
      int x = -1, y = -1;
      copy.recv(&y, 1, kInt32(), 0, 3);
      comm.recv(&x, 1, kInt32(), 0, 3);
      EXPECT_EQ(x, 5);
      EXPECT_EQ(y, 6);
    }
  });
}

TEST(CommSplit, NestedSplits) {
  Runtime rt(world(8));
  rt.run([](Process& p) {
    Comm comm(p);
    Comm half = comm.split(p.rank() / 4, p.rank());
    Comm quarter = half.split(half.rank() / 2, half.rank());
    EXPECT_EQ(quarter.size(), 2);
    int v = p.rank(), peer_v = -1;
    const int peer = 1 - quarter.rank();
    const Status st = quarter.sendrecv(&v, 1, kInt32(), peer, 0, &peer_v, 1,
                                       kInt32(), peer, 0);
    EXPECT_EQ(st.source, peer);
    // The quarters pair adjacent world ranks: 0-1, 2-3, ...
    EXPECT_EQ(peer_v, p.rank() % 2 == 0 ? p.rank() + 1 : p.rank() - 1);
  });
}

}  // namespace
}  // namespace gpuddt::mpi

// Byte Transfer Layer (BTL).
//
// The lowest layer of the Open MPI communication stack: actual byte
// movement over one kind of interconnect, plus one-sided RDMA primitives.
// Two BTLs are provided, matching the paper's evaluation platforms:
//   * SmBtl - intra-node shared memory; RDMA maps to CUDA IPC.
//   * IbBtl - simulated FDR InfiniBand between nodes; RDMA maps to
//             GPUDirect RDMA when enabled.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "mpi/runtime.h"
#include "vtime/resource.h"

namespace gpuddt::mpi {

class Btl {
 public:
  virtual ~Btl() = default;

  virtual const char* name() const = 0;

  /// Largest Active-Message payload one send may carry.
  virtual std::size_t max_am_payload() const = 0;

  /// Send an Active Message; the wire transfer begins no earlier than
  /// max(sender clock, earliest) and the message arrival carries the
  /// virtual completion time.
  /// Returns the message's virtual arrival (wire-completion) time.
  virtual vt::Time am_send(Process& src, int dst_rank, int handler,
                           std::vector<std::byte> payload,
                           vt::Time earliest) = 0;

  /// One-sided get: read `bytes` from `remote` (a pointer valid in this
  /// address space - IPC-mapped device memory or exposed host memory) into
  /// `local`. Returns the virtual finish time.
  virtual vt::Time rdma_get(Process& self, int peer_rank, void* local,
                            const void* remote, std::size_t bytes,
                            vt::Time earliest) = 0;

  /// One-sided put (same conventions).
  virtual vt::Time rdma_put(Process& self, int peer_rank, void* remote,
                            const void* local, std::size_t bytes,
                            vt::Time earliest) = 0;

  /// Can device memory be moved directly between these endpoints (CUDA
  /// IPC intra-node / GPUDirect RDMA inter-node)?
  virtual bool supports_gpu_rdma(const Process& self, int peer) const = 0;

  /// Largest message the direct GPU-RDMA path should carry. CUDA IPC has
  /// no practical limit; GPUDirect RDMA over the wire only pays off for
  /// small messages (< ~30KB per [14]; larger transfers pipeline through
  /// host memory instead - Section 5.2).
  virtual std::int64_t gpu_rdma_limit(const Process& self) const = 0;
};

/// Intra-node shared-memory BTL. Per ordered rank pair, one serialized
/// channel models the copy bandwidth between the two processes.
class SmBtl : public Btl {
 public:
  explicit SmBtl(Runtime& rt) : rt_(rt) {}

  const char* name() const override { return "sm"; }
  std::size_t max_am_payload() const override { return 1 << 20; }
  vt::Time am_send(Process& src, int dst_rank, int handler,
                   std::vector<std::byte> payload, vt::Time earliest) override;
  vt::Time rdma_get(Process& self, int peer_rank, void* local,
                    const void* remote, std::size_t bytes,
                    vt::Time earliest) override;
  vt::Time rdma_put(Process& self, int peer_rank, void* remote,
                    const void* local, std::size_t bytes,
                    vt::Time earliest) override;
  bool supports_gpu_rdma(const Process& self, int peer) const override;
  std::int64_t gpu_rdma_limit(const Process& /*self*/) const override {
    return INT64_MAX;
  }

 private:
  vt::TimedResource& channel(int a, int b);

  Runtime& rt_;
  std::map<std::pair<int, int>, vt::TimedResource> chans_;
};

/// Inter-node simulated InfiniBand BTL: one full-duplex-ish serialized
/// link per node pair.
class IbBtl : public Btl {
 public:
  explicit IbBtl(Runtime& rt) : rt_(rt) {}

  const char* name() const override { return "ib"; }
  std::size_t max_am_payload() const override { return 1 << 20; }
  vt::Time am_send(Process& src, int dst_rank, int handler,
                   std::vector<std::byte> payload, vt::Time earliest) override;
  vt::Time rdma_get(Process& self, int peer_rank, void* local,
                    const void* remote, std::size_t bytes,
                    vt::Time earliest) override;
  vt::Time rdma_put(Process& self, int peer_rank, void* remote,
                    const void* local, std::size_t bytes,
                    vt::Time earliest) override;
  bool supports_gpu_rdma(const Process& self, int peer) const override;
  std::int64_t gpu_rdma_limit(const Process& self) const override;

 private:
  /// Pick the rail for the next large transfer on this directional node
  /// pair (round-robin), and return its link resource.
  vt::TimedResource& link(int node_a, int node_b, bool large);

  /// Leaf switch of a node under the configured fat tree, or -1 when the
  /// fabric is a single full-bisection switch (the default).
  int leaf_of(int node) const;

  /// The shared spine uplink a cross-leaf transfer crosses at `leaf` in
  /// the given direction (0 = toward the spine, 1 = from it). Large
  /// transfers round-robin over the leaf's uplinks; control traffic
  /// stays on uplink 0, mirroring the rail policy one level down.
  vt::TimedResource& leaf_uplink(int leaf, int direction, bool large);

  /// Charge a cross-leaf transfer's detour over both leaves' shared
  /// uplinks; returns the (possibly later) finish time. No-op returning
  /// `wire.finish` when src and dst share a leaf or no fat tree is
  /// configured.
  vt::Time charge_fat_tree(Process& p, int src_node, int dst_node,
                           std::int64_t bytes, bool large,
                           vt::Reservation wire);

  Runtime& rt_;
  /// Directional links keyed by (src node, dst node, rail).
  std::map<std::tuple<int, int, int>, vt::TimedResource> links_;
  std::map<std::pair<int, int>, int> next_rail_;
  /// Shared fat-tree uplinks keyed by (leaf, direction, uplink index).
  std::map<std::tuple<int, int, int>, vt::TimedResource> leaf_links_;
  std::map<std::pair<int, int>, int> next_uplink_;
};

}  // namespace gpuddt::mpi

#include "mpi/btl.h"

#include <algorithm>
#include <cstring>

namespace gpuddt::mpi {

// --- SmBtl -------------------------------------------------------------------

// Channels and links are directional (full-duplex): traffic a->b never
// contends with b->a. Besides matching real fabrics, this keeps each
// resource single-writer in steady state, which makes virtual timelines
// deterministic across runs.
vt::TimedResource& SmBtl::channel(int a, int b) {
  return chans_[std::make_pair(a, b)];
}

vt::Time SmBtl::am_send(Process& src, int dst_rank, int handler,
                        Payload payload, vt::Time earliest) {
  const sg::CostModel& cm = src.runtime().machine().cost();
  // Small header/doorbell cost on the sender core.
  src.clock().advance(vt::usec(0.2));
  const vt::Time start = std::max(src.clock().now(), earliest);
  const vt::Time dur =
      cm.sm_latency_ns +
      vt::transfer_time(static_cast<std::int64_t>(payload.size()), cm.sm_gbps);
  const auto r = channel(src.rank(), dst_rank).reserve(start, dur);
  AmMessage m;
  m.handler = handler;
  m.src_rank = src.rank();
  m.arrival = r.finish;
  m.payload = std::move(payload);
  src.runtime().process(dst_rank).deliver(std::move(m));
  return r.finish;
}

vt::Time SmBtl::rdma_get(Process& self, int /*peer_rank*/, void* local,
                         const void* remote, std::size_t bytes,
                         vt::Time earliest) {
  // Intra-node one-sided read: CUDA IPC (device memory) or plain
  // shared-memory copy. TimedCopy picks the right resources from the
  // pointer registry.
  return sg::TimedCopy(self.gpu(), local, remote, bytes, earliest,
                       "sm_rdma_get");
}

vt::Time SmBtl::rdma_put(Process& self, int /*peer_rank*/, void* remote,
                         const void* local, std::size_t bytes,
                         vt::Time earliest) {
  return sg::TimedCopy(self.gpu(), remote, local, bytes, earliest,
                       "sm_rdma_put");
}

bool SmBtl::supports_gpu_rdma(const Process& self, int /*peer*/) const {
  return self.config().ipc_enabled && !self.config().force_copy_inout;
}

// --- IbBtl ------------------------------------------------------------------------

vt::TimedResource& IbBtl::link(int node_a, int node_b, bool large) {
  // Small control messages stay on rail 0 (keeps the handshake latency
  // path warm); large payloads round-robin across the configured rails.
  int rail = 0;
  const int rails = std::max(1, rt_.config().ib_rails);
  if (large && rails > 1) {
    int& next = next_rail_[std::make_pair(node_a, node_b)];
    rail = next;
    next = (next + 1) % rails;
  }
  return links_[std::make_tuple(node_a, node_b, rail)];  // directional
}

int IbBtl::leaf_of(int node) const {
  const int per_leaf = rt_.machine().config().topo.fat_tree_leaf_nodes;
  return per_leaf > 0 ? node / per_leaf : -1;
}

vt::TimedResource& IbBtl::leaf_uplink(int leaf, int direction, bool large) {
  int up = 0;
  const int uplinks =
      std::max(1, rt_.machine().config().topo.fat_tree_uplinks);
  if (large && uplinks > 1) {
    int& next = next_uplink_[std::make_pair(leaf, direction)];
    up = next;
    next = (next + 1) % uplinks;
  }
  return leaf_links_[std::make_tuple(leaf, direction, up)];
}

vt::Time IbBtl::charge_fat_tree(Process& p, int src_node, int dst_node,
                                std::int64_t bytes, bool large,
                                vt::Reservation wire) {
  const int src_leaf = leaf_of(src_node);
  const int dst_leaf = leaf_of(dst_node);
  if (src_leaf < 0 || src_leaf == dst_leaf) return wire.finish;
  // Cross-leaf: the packets detour leaf -> spine -> leaf over both
  // leaves' shared uplinks, which concurrent flows from sibling nodes
  // contend for even when their node-pair links are idle. The message
  // streams wormhole-style: each hop starts fat_tree_hop_ns (header
  // latency) after the previous one and then pays the uplink's
  // serialization time, so an uncontended detour costs exactly two hop
  // latencies over the flat fabric and a congested uplink stalls the
  // whole tail.
  const sg::TopologyConfig& topo = p.runtime().machine().config().topo;
  const vt::Time xfer = vt::transfer_time(bytes, topo.fat_tree_uplink_gbps);
  const auto up = leaf_uplink(src_leaf, 0, large)
                      .reserve(wire.start + topo.fat_tree_hop_ns, xfer);
  const auto down = leaf_uplink(dst_leaf, 1, large)
                        .reserve(up.start + topo.fat_tree_hop_ns, xfer);
  return std::max(wire.finish, down.finish);
}

vt::Time IbBtl::am_send(Process& src, int dst_rank, int handler,
                        Payload payload, vt::Time earliest) {
  const sg::CostModel& cm = src.runtime().machine().cost();
  src.clock().advance(cm.ib_post_ns);
  const vt::Time start = std::max(src.clock().now(), earliest);
  const vt::Time dur =
      cm.ib_latency_ns +
      vt::transfer_time(static_cast<std::int64_t>(payload.size()), cm.ib_gbps);
  const bool large = payload.size() > 4096;
  const int dst_node = src.node_of(dst_rank);
  const auto r = link(src.node(), dst_node, large).reserve(start, dur);
  const vt::Time arrival =
      charge_fat_tree(src, src.node(), dst_node,
                      static_cast<std::int64_t>(payload.size()), large, r);
  AmMessage m;
  m.handler = handler;
  m.src_rank = src.rank();
  m.arrival = arrival;
  m.payload = std::move(payload);
  src.runtime().process(dst_rank).deliver(std::move(m));
  return arrival;
}

vt::Time IbBtl::rdma_get(Process& self, int peer_rank, void* local,
                         const void* remote, std::size_t bytes,
                         vt::Time earliest) {
  const sg::CostModel& cm = self.runtime().machine().cost();
  // GPUDirect RDMA reads remote device memory over the wire; the PCI-E
  // read path caps throughput below the link rate for large messages
  // (the effect behind the paper's choice to pipeline big transfers
  // through host memory, Section 5.2 / [14]).
  const auto remote_attr = self.runtime().machine().query(remote);
  const auto local_attr = self.runtime().machine().query(local);
  double bw = cm.ib_gbps;
  if (remote_attr.space == sg::MemorySpace::kDevice ||
      local_attr.space == sg::MemorySpace::kDevice) {
    // K40-era GPUDirect RDMA reads cross the Ivy Bridge root complex at
    // well under 1 GB/s - the measured effect behind the paper's "only
    // interesting for small messages (less than 30KB)" observation.
    bw = std::min(bw, cm.ib_gbps * 0.24);
  }
  const vt::Time dur = cm.ib_latency_ns + cm.pcie_latency_ns +
                       vt::transfer_time(static_cast<std::int64_t>(bytes), bw);
  const bool large = bytes > 4096;
  const int peer_node = self.node_of(peer_rank);
  const auto r = link(self.node(), peer_node, large).reserve(earliest, dur);
  const vt::Time finish =
      charge_fat_tree(self, self.node(), peer_node,
                      static_cast<std::int64_t>(bytes), large, r);
  std::memcpy(local, remote, bytes);
  // The wire bytes move outside the GPU runtime's calls; report them to
  // the access checker so GPUDirect reads participate in hazard analysis.
  const sg::MemRange ranges[] = {
      {remote, static_cast<std::int64_t>(bytes), false},
      {local, static_cast<std::int64_t>(bytes), true}};
  sg::NoteAccess(self.gpu(), "ib_rdma", std::max(earliest, vt::Time{0}),
                 finish, ranges);
  return finish;
}

vt::Time IbBtl::rdma_put(Process& self, int peer_rank, void* remote,
                         const void* local, std::size_t bytes,
                         vt::Time earliest) {
  // Same wire path as a get, initiated from this side.
  return rdma_get(self, peer_rank, remote, local, bytes, earliest);
}

bool IbBtl::supports_gpu_rdma(const Process& self, int /*peer*/) const {
  return self.config().gpudirect_rdma && !self.config().force_copy_inout;
}

std::int64_t IbBtl::gpu_rdma_limit(const Process& self) const {
  return self.config().gpudirect_limit_bytes;
}

}  // namespace gpuddt::mpi

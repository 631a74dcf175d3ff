#include "verify/pipeline.h"

#include <algorithm>
#include <stdexcept>

namespace gpuddt::verify {

namespace {

std::size_t add_node(PipelineDag& dag, std::string name, std::string queue,
                     std::vector<ResourceAccess> accesses) {
  dag.nodes.push_back({std::move(name), std::move(queue),
                       std::move(accesses)});
  return dag.nodes.size() - 1;
}

void add_edge(PipelineDag& dag, std::size_t from, std::size_t to,
              const char* why) {
  dag.edges.push_back({from, to, why});
}

bool conflicting(const ResourceAccess& a, const ResourceAccess& b) {
  return a.resource == b.resource && (a.write || b.write) && a.lo < b.hi &&
         b.lo < a.hi;
}

}  // namespace

std::vector<PipelineHazard> find_hazards(const PipelineDag& dag) {
  const std::size_t n = dag.nodes.size();
  std::vector<std::vector<std::size_t>> succ(n);
  std::vector<std::size_t> indeg(n, 0);
  for (const DagEdge& e : dag.edges) {
    if (e.from >= n || e.to >= n) {
      throw std::invalid_argument("verify: pipeline edge out of range");
    }
    succ[e.from].push_back(e.to);
    ++indeg[e.to];
  }
  // Kahn topological order; a cycle means the model itself is broken.
  std::vector<std::size_t> order;
  order.reserve(n);
  std::vector<std::size_t> ready;
  for (std::size_t i = 0; i < n; ++i) {
    if (indeg[i] == 0) ready.push_back(i);
  }
  while (!ready.empty()) {
    const std::size_t v = ready.back();
    ready.pop_back();
    order.push_back(v);
    for (const std::size_t s : succ[v]) {
      if (--indeg[s] == 0) ready.push_back(s);
    }
  }
  if (order.size() != n) {
    throw std::invalid_argument("verify: pipeline DAG has a cycle");
  }
  // Transitive reachability as bitsets, filled in reverse topo order.
  const std::size_t words = (n + 63) / 64;
  std::vector<std::uint64_t> reach(n * words, 0);
  const auto bit = [&](std::size_t from, std::size_t to) {
    return (reach[from * words + to / 64] >> (to % 64)) & 1u;
  };
  for (std::size_t k = n; k-- > 0;) {
    const std::size_t v = order[k];
    for (const std::size_t s : succ[v]) {
      reach[v * words + s / 64] |= std::uint64_t{1} << (s % 64);
      for (std::size_t w = 0; w < words; ++w) {
        reach[v * words + w] |= reach[s * words + w];
      }
    }
  }
  std::vector<PipelineHazard> hazards;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (bit(i, j) || bit(j, i)) continue;  // ordered in some direction
      for (const ResourceAccess& a : dag.nodes[i].accesses) {
        for (const ResourceAccess& b : dag.nodes[j].accesses) {
          if (!conflicting(a, b)) continue;
          hazards.push_back({a.write && b.write ? "WAW" : "RW",
                             dag.nodes[i].name, dag.nodes[j].name,
                             a.resource});
        }
      }
    }
  }
  return hazards;
}

namespace {

/// The stream-triggered chain (drive_stream_chain, docs/protocols.md):
/// conversion is a host FIFO feeding ONE batch descriptor upload
/// (stage_all), then every per-fragment ordering is a stream/event
/// dependency - pack-ready crossing to the triggered GET queue, GET
/// completion releasing the unpack, the receiver staging ring recycled
/// by unpack completion, and the sender send-ring slot recycled by the
/// GET's completion event crossed back. No node is a host step after the
/// rendezvous.
PipelineDag build_stream_triggered_pipeline(const EnginePipelineParams& p) {
  if (p.wire_fragments < 1 || p.send_ring_depth < 1 || p.staging_depth < 1 ||
      p.windows < 1) {
    throw std::invalid_argument("verify: bad stream-triggered parameters");
  }
  if (p.residue_separate_stream) {
    throw std::invalid_argument(
        "verify: stage_all refuses residue_separate_stream; so does the "
        "model");
  }
  if (p.mutate == MutateDag::kDropWarEdge) {
    throw std::invalid_argument(
        "verify: kDropWarEdge targets the double-buffered descriptor "
        "uploader; the stream-triggered chain uploads once");
  }
  PipelineDag dag;
  const std::int64_t B = 1;
  // Host side: conversion chunks in program order, then the one batch
  // upload of the whole descriptor array.
  std::vector<std::size_t> conv(static_cast<std::size_t>(p.windows));
  for (int w = 0; w < p.windows; ++w) {
    conv[static_cast<std::size_t>(w)] =
        add_node(dag, "conv[" + std::to_string(w) + "]", "host", {});
    if (w > 0) {
      add_edge(dag, conv[static_cast<std::size_t>(w - 1)],
               conv[static_cast<std::size_t>(w)], "host program order");
    }
  }
  const std::size_t upload =
      add_node(dag, "batch_upload", "engine.upload",
               {{"desc_batch", 0, p.windows, true}});
  add_edge(dag, conv[static_cast<std::size_t>(p.windows - 1)], upload,
           "host issue order");
  std::vector<std::size_t> kernel(static_cast<std::size_t>(p.wire_fragments));
  std::vector<std::size_t> wire(static_cast<std::size_t>(p.wire_fragments));
  std::vector<std::size_t> unpack(static_cast<std::size_t>(p.wire_fragments));
  for (int f = 0; f < p.wire_fragments; ++f) {
    const std::size_t fi = static_cast<std::size_t>(f);
    const std::int64_t sslot = f % p.send_ring_depth;
    const std::int64_t rslot = f % p.staging_depth;
    const std::string idx = "[" + std::to_string(f) + "]";
    kernel[fi] = add_node(dag, "kernel" + idx, "engine.kernel",
                          {{"desc_batch", 0, p.windows, false},
                           {"send_ring", sslot, sslot + 1, true}});
    wire[fi] = add_node(dag, "wire" + idx, "wire",
                        {{"send_ring", sslot, sslot + 1, false},
                         {"staging", rslot, rslot + 1, true}});
    unpack[fi] = add_node(dag, "unpack" + idx, "unpack",
                          {{"staging", rslot, rslot + 1, false},
                           {"user_dst", f * B, (f + 1) * B, true}});
  }
  for (int f = 0; f < p.wire_fragments; ++f) {
    const std::size_t fi = static_cast<std::size_t>(f);
    add_edge(dag, upload, kernel[fi], "upload->kernel event");
    add_edge(dag, kernel[fi], wire[fi], "pack-ready event (cross-device)");
    add_edge(dag, wire[fi], unpack[fi], "GET completion event");
    if (f + 1 < p.wire_fragments) {
      add_edge(dag, kernel[fi], kernel[fi + 1], "kernel stream FIFO");
      add_edge(dag, wire[fi], wire[fi + 1], "triggered GET queue FIFO");
      add_edge(dag, unpack[fi], unpack[fi + 1], "unpack stream FIFO");
    }
    if (f + p.staging_depth < p.wire_fragments) {
      add_edge(dag, unpack[fi],
               wire[fi + static_cast<std::size_t>(p.staging_depth)],
               "staging credit return");
    }
    // The sender ring slot is writable again only once its consuming GET
    // completed - the completion event crossed back to the sender's
    // device. Dropping it is the seeded send-ring WAR race.
    if (f + p.send_ring_depth < p.wire_fragments &&
        p.mutate != MutateDag::kDropCreditEdge) {
      add_edge(dag, wire[fi],
               kernel[fi + static_cast<std::size_t>(p.send_ring_depth)],
               "send-ring credit event (cross-device)");
    }
  }
  return dag;
}

}  // namespace

PipelineDag build_engine_pipeline(const EnginePipelineParams& p) {
  if (p.stream_triggered) return build_stream_triggered_pipeline(p);
  if (p.mutate == MutateDag::kDropCreditEdge) {
    throw std::invalid_argument(
        "verify: kDropCreditEdge targets the stream-triggered send ring");
  }
  if (p.windows < 1 || p.desc_slots < 1 || p.staging_depth < 1 ||
      p.wire_fragments > p.windows) {
    throw std::invalid_argument("verify: bad pipeline parameters");
  }
  if (p.wire_fragments > 0 && p.residue_separate_stream) {
    // The wire extension maps fragment f onto window f's packed range;
    // the residue split renumbers those ranges, so model one at a time.
    throw std::invalid_argument(
        "verify: wire extension models the single-stream pipeline only");
  }
  PipelineDag dag;
  const std::int64_t B = 1;  // one abstract byte-range unit per window
  std::vector<std::size_t> conv(p.windows);
  std::vector<std::size_t> upload(p.windows);
  std::vector<std::size_t> kernel(p.windows);
  std::vector<std::size_t> residue(p.windows);
  for (int w = 0; w < p.windows; ++w) {
    const std::int64_t slot = w % p.desc_slots;
    const std::string idx = "[" + std::to_string(w) + "]";
    // conv(w): host-side DEV conversion into private staging memory. The
    // MemcpyAsync source is captured at issue time (pageable-staging
    // semantics in the simulator), so the staged host buffer is not a
    // shared resource - only the device descriptor slot is.
    conv[w] = add_node(dag, "conv" + idx, "host", {});
    upload[w] = add_node(dag, "upload" + idx, "engine.upload",
                         {{"desc_slot", slot, slot + 1, true}});
    const std::int64_t pk_lo = w * B;
    if (!p.residue_separate_stream) {
      kernel[w] = add_node(dag, "kernel" + idx, "engine.kernel",
                           {{"desc_slot", slot, slot + 1, false},
                            {"packed", pk_lo, pk_lo + B, true}});
    } else {
      // Full units on the kernel stream, residues on a second stream;
      // they share the descriptor slot and split the window's packed
      // range (full units first - disjoint by construction).
      kernel[w] = add_node(dag, "kernel" + idx, "engine.kernel",
                           {{"desc_slot", slot, slot + 1, false},
                            {"packed", 2 * pk_lo, 2 * pk_lo + 1, true}});
      residue[w] = add_node(dag, "residue" + idx, "engine.residue",
                            {{"desc_slot", slot, slot + 1, false},
                             {"packed", 2 * pk_lo + 1, 2 * pk_lo + 2, true}});
    }
  }
  for (int w = 0; w < p.windows; ++w) {
    // Host program order: the issuing thread converts window w, issues
    // its upload, then converts window w+1.
    add_edge(dag, conv[w], upload[w], "host issue order");
    if (w + 1 < p.windows) {
      add_edge(dag, conv[w], conv[w + 1], "host program order");
      add_edge(dag, upload[w], upload[w + 1], "upload stream FIFO");
      add_edge(dag, kernel[w], kernel[w + 1], "kernel stream FIFO");
      if (p.residue_separate_stream) {
        add_edge(dag, residue[w], residue[w + 1], "residue stream FIFO");
      }
    }
    // upload_descriptors: EventRecord(upload) + StreamWaitEvent(kernel).
    add_edge(dag, upload[w], kernel[w], "upload->kernel event");
    if (p.residue_separate_stream) {
      add_edge(dag, upload[w], residue[w], "upload->residue event");
    }
    // The desc_last_use_ guard: before window w reuses slot w % slots,
    // its upload waits for the kernel that read that slot last
    // (window w - desc_slots). Dropping this edge is the seeded
    // descriptor-slot WAR race.
    if (w >= p.desc_slots && p.mutate != MutateDag::kDropWarEdge) {
      add_edge(dag, kernel[w - p.desc_slots], upload[w],
               "desc_last_use WAR guard");
      if (p.residue_separate_stream) {
        add_edge(dag, residue[w - p.desc_slots], upload[w],
                 "desc_last_use WAR guard");
      }
    }
  }
  // Wire + unpack extension: fragment f's packed bytes leave through a
  // staging ring of `staging_depth` slots and are scattered on the
  // receiver. Modeled only on the plain-stream configuration (fragment
  // f = window f).
  if (p.wire_fragments > 0) {
    std::vector<std::size_t> wire(p.wire_fragments);
    std::vector<std::size_t> unpack(p.wire_fragments);
    for (int f = 0; f < p.wire_fragments; ++f) {
      const std::int64_t slot = f % p.staging_depth;
      const std::string idx = "[" + std::to_string(f) + "]";
      wire[f] = add_node(dag, "wire" + idx, "wire",
                         {{"packed", f * B, (f + 1) * B, false},
                          {"staging", slot, slot + 1, true}});
      unpack[f] = add_node(dag, "unpack" + idx, "unpack",
                           {{"staging", slot, slot + 1, false},
                            {"user_dst", f * B, (f + 1) * B, true}});
    }
    for (int f = 0; f < p.wire_fragments; ++f) {
      add_edge(dag, kernel[f], wire[f], "pack complete -> RDMA");
      add_edge(dag, wire[f], unpack[f], "fragment arrival event");
      if (f + 1 < p.wire_fragments) {
        add_edge(dag, wire[f], wire[f + 1], "wire FIFO");
        add_edge(dag, unpack[f], unpack[f + 1], "unpack stream FIFO");
      }
      if (f + p.staging_depth < p.wire_fragments) {
        add_edge(dag, unpack[f], wire[f + p.staging_depth],
                 "staging credit return");
      }
    }
  }
  return dag;
}

}  // namespace gpuddt::verify

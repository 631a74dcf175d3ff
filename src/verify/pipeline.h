// Static hazard analysis of the fragment pipeline - the verifier's
// second half.
//
// The dynamic access tracker (src/check/) observes ONE schedule: the
// interleaving that actually ran. This model instead proves hazard
// freedom over ALL legal interleavings. It rebuilds the engine's
// fragment pipeline (conv -> H2D descriptor upload -> DEV kernel ->
// wire/RDMA -> unpack, the chain the PR 5 flow ids trace) as an explicit
// dependency DAG whose edges are exactly the orderings the runtime
// guarantees:
//
//   * host program order (the issuing thread),
//   * stream FIFO order (two ops on one CUDA stream),
//   * recorded events (StreamWaitEvent edges the engine issues).
//
// Anything NOT implied by those edges may execute in any order. Two
// accesses to overlapping bytes of one resource, at least one a write,
// are hazard-free only if the edge relation orders them - a
// happens-before reachability check, not a timestamp comparison.
//
// build_engine_pipeline() mirrors the synchronization the engine
// actually issues (core/engine.cpp): the double-buffered descriptor
// slots, the upload->kernel event, the kernel(w) -> upload(w+2) WAR
// guard (desc_last_use_), the optional residue stream, and the
// wire/unpack extension with a bounded staging ring. Dropping the WAR
// guard (MutateDag::kDropWarEdge) reproduces the descriptor-slot race
// PR 2's dynamic tracker caught - now as a statically refuted proof
// obligation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.h"

namespace gpuddt::verify {

/// One byte-range access a pipeline node performs on a named resource.
struct ResourceAccess {
  std::string resource;  // e.g. "desc_slot", "packed", "staging"
  std::int64_t lo = 0;   // [lo, hi) within that resource
  std::int64_t hi = 0;
  bool write = false;
};

/// One node of the pipeline DAG (a host step or a device-side op).
struct DagNode {
  std::string name;   // e.g. "kernel[3]"
  std::string queue;  // "host" / stream name - documentation only
  std::vector<ResourceAccess> accesses;
};

struct DagEdge {
  std::size_t from = 0;
  std::size_t to = 0;
  std::string why;  // "host order" / "stream fifo" / "event" ...
};

struct PipelineDag {
  std::vector<DagNode> nodes;
  std::vector<DagEdge> edges;
};

/// An unordered conflicting pair found by the prover.
struct PipelineHazard {
  std::string type;  // "RAW" | "WAR" | "WAW"
  std::string a;     // node names
  std::string b;
  std::string resource;
};

/// Prove every conflicting access pair ordered by happens-before
/// reachability. Returns all unordered pairs (empty = proven safe).
std::vector<PipelineHazard> find_hazards(const PipelineDag& dag);

/// Seeded model mutations for the rejection fixtures.
enum class MutateDag : std::uint8_t {
  kNone,
  /// Drop the kernel(w) -> upload(w+2) descriptor-slot WAR guard.
  kDropWarEdge,
  /// Drop the wire(f) -> kernel(f + send_ring_depth) send-ring credit
  /// event of the stream-triggered chain: pack kernels then overwrite
  /// ring slots the in-flight GETs still read (WAR on send_ring).
  kDropCreditEdge,
};

/// Parameters of the modeled engine pipeline. `windows` is the number of
/// descriptor windows one op issues; `wire_fragments`/`staging_depth`
/// extend the model past the kernel into the wire + unpack stages
/// (0 fragments = sender-side model only). With `stream_triggered` the
/// model switches to the offloaded chain the plugin enqueues at
/// rendezvous (docs/protocols.md): stage_all's single batch descriptor
/// upload feeds per-fragment pack kernels writing a bounded send ring of
/// `send_ring_depth` slots, drained by triggered GETs into the receiver
/// staging ring - every ordering a stream/event dependency, none a host
/// round-trip.
struct EnginePipelineParams {
  int windows = 4;
  int desc_slots = core::kDescSlots;
  bool residue_separate_stream = false;
  int wire_fragments = 0;
  int staging_depth = 2;
  bool stream_triggered = false;
  int send_ring_depth = 2;
  MutateDag mutate = MutateDag::kNone;
};

/// Build the DAG the engine's synchronization implies.
PipelineDag build_engine_pipeline(const EnginePipelineParams& p);

}  // namespace gpuddt::verify

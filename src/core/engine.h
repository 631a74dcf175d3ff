// The GPU datatype engine - the paper's core contribution (Section 3).
//
// One engine per MPI rank. It packs / unpacks non-contiguous GPU-resident
// datatypes incrementally ("a fragment at a time"): the pipelined
// protocols of Section 4 interleave process_some() calls with their
// transfers, and every caller that moves one whole message (MPI_Pack, the
// eager tier, the handshake shortcuts, SHMEM, RMA) goes through drain().
// Each op takes one of three paths:
//
//   * vector fast path: layouts expressible as blocklen/stride go straight
//     to the specialized kernel, no descriptor conversion at all (S3.1);
//   * general path: the host converts the datatype into CUDA DEV work
//     units - in chunks, pipelined with kernel execution (S3.2) - uploads
//     the descriptors, and launches the DEV kernel. An op holds one unit
//     list: a cache entry, or its own list, which grows chunk by chunk
//     (all at once under stage_all) and moves into the cache at finish.
//     Each launch's window is a DevWindow cut in place from that list:
//     the first unit skips the bytes done before, the last is cut at the
//     budget, and the window's end is a binary search on pk_disp;
//   * converted unit arrays are cached (host + device copies) and reused
//     whenever the same datatype *shape* and count is packed again - the
//     cache keys on the canonical-form digest (mpi/canonical.h), so
//     structurally equal types built by different callers share entries.
//
// The contiguous side of an operation may live in local device memory, in
// zero-copy mapped host memory (the copy-in/out protocol's bounce buffers)
// or in a peer device (IPC / pack-to-remote shortcut); the kernels price
// each case appropriately.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/dev.h"
#include "core/dev_cache.h"
#include "core/kernels.h"
#include "simgpu/runtime.h"
#include "simgpu/stream.h"

namespace gpuddt::core {

/// Descriptor scratch slots per op: while the kernel reading slot k is
/// still in flight, the next window uploads into another slot. The static
/// pipeline-hazard prover (src/verify/pipeline.h) models this depth.
constexpr int kDescSlots = 2;

struct EngineConfig {
  /// Work-unit size S (Section 3.2: 1KB, 2KB or 4KB; floor 256B).
  std::int64_t unit_bytes = 1024;
  /// CUDA blocks per kernel (Section 5.3 sweeps this).
  int kernel_blocks = 64;
  bool cache_enabled = true;
  /// Byte bound on the DEV cache's summed descriptor footprint
  /// (0 = entry-count bound only; see DevCache).
  std::int64_t cache_max_bytes = 0;
  /// Pipeline host-side conversion with kernel execution; off = convert
  /// the whole remaining range first (the Figure 7 "plain" variant).
  bool pipeline_conversion = true;
  /// Section 3.2 discusses delegating incomplete (residue) work units to
  /// a second, lower-priority stream instead of treating them like full
  /// units. The paper chooses equal treatment ("allowing us to launch a
  /// single kernel and therefore minimize launching overhead"); this knob
  /// enables the alternative so the ablation can quantify that choice.
  bool residue_separate_stream = false;
  /// Optional observability sink (counters, histograms, trace events).
  /// Nullable; the engine is silent when unset. Declared in obs/recorder.h
  /// (forward-declared via dev_cache.h).
  obs::Recorder* recorder = nullptr;
  /// Rank that owns this engine, stamped as `pid` on its trace events so
  /// the Chrome export groups engine stages under the right rank process.
  /// -1 (standalone engines) falls back to the device id.
  std::int32_t trace_pid = -1;
};

/// Flow stamping for GpuDatatypeEngine::drain(): chunk k of the op runs
/// under mpi::frag_flow(rank, id, k). A negative rank leaves the op's flow
/// as it is.
struct DrainFlow {
  int rank = -1;
  std::uint64_t id = 0;
};

class GpuDatatypeEngine {
 public:
  using Dir = core::Dir;

  /// `ctx` must outlive the engine; streams are created on ctx's device.
  explicit GpuDatatypeEngine(sg::HostContext& ctx, EngineConfig cfg = {});
  ~GpuDatatypeEngine();

  GpuDatatypeEngine(const GpuDatatypeEngine&) = delete;
  GpuDatatypeEngine& operator=(const GpuDatatypeEngine&) = delete;

  /// Incremental state of one message's pack or unpack.
  class Op {
   public:
    std::int64_t total_bytes() const { return total_; }
    std::int64_t bytes_done() const { return pos_; }
    bool done() const { return pos_ >= total_; }
    Dir dir() const { return dir_; }
    /// True when the operation runs on the vector fast path.
    bool on_vector_path() const { return pattern_.has_value(); }
    bool used_cache() const { return cached_ != nullptr; }

    /// Fragment flow id stamped on trace events the engine emits for
    /// this op (mpi::frag_flow, docs/tracing.md). Protocol drivers set
    /// it before each process_some call so the conv/desc-upload/kernel
    /// spans of one fragment join that fragment's cross-rank flow chain.
    /// 0 (the default) leaves events flow-less. Virtual time and results
    /// are unaffected - this is pure trace metadata.
    void set_flow(std::uint64_t flow) { flow_ = flow; }
    std::uint64_t flow() const { return flow_; }

   private:
    friend class GpuDatatypeEngine;
    Dir dir_ = Dir::kPack;
    mpi::DatatypePtr dt_;
    std::int64_t count_ = 0;
    std::byte* user_base_ = nullptr;
    std::int64_t total_ = 0;
    std::int64_t pos_ = 0;
    std::optional<mpi::RegularPattern> pattern_;
    // Cached-path state.
    const DevCache::Entry* cached_ = nullptr;
    const CudaDevDist* cached_dev_ = nullptr;
    // Where the next window starts in the unit list (the cache entry or
    // units_): its first unit, and the bytes of that unit already done,
    // which become the window's skip (DevWindow).
    std::size_t unit_pos_ = 0;
    std::int64_t unit_off_ = 0;
    // Live-conversion state: every unit converted so far, in order.
    DevCursor cursor_;
    std::vector<CudaDevDist> units_;
    // Device scratch for descriptor uploads, one buffer per slot. A single
    // buffer would be a WAR hazard (the upload overwrites descriptors the
    // previous kernel may still be reading).
    void* desc_dev_[kDescSlots] = {};
    std::size_t desc_cap_units_[kDescSlots] = {};
    vt::Time desc_last_use_[kDescSlots] = {};  // last kernel finish per slot
    int desc_slot_ = 0;  // slot the latest upload used
    std::vector<CudaDevDist> split_;    // residue-stream split (full first)
    // Batch-submission state (stage_all): the whole of units_ uploaded
    // up-front into one device array, so later process_triggered calls
    // launch kernels without any host conversion or per-window
    // descriptor upload.
    void* batch_dev_ = nullptr;
    // Conversion/kernel overlap accounting (virtual time, per op).
    vt::Time conv_ns_ = 0;          // total host conversion time
    vt::Time conv_overlap_ns_ = 0;  // conversion time with a kernel in flight
    std::uint64_t flow_ = 0;        // trace flow id (set_flow)
  };

  /// Begin packing (gathering) or unpacking (scattering) `count` elements
  /// of `dt` at `user_base` (device memory).
  std::unique_ptr<Op> start(Dir dir, mpi::DatatypePtr dt, std::int64_t count,
                            void* user_base);

  struct Result {
    std::int64_t bytes = 0;  // packed-stream bytes processed
    vt::Time ready = 0;      // virtual completion of the launched kernels
  };

  /// Process exactly min(max_bytes, remaining) bytes of the packed stream
  /// against `contig` (the contiguous buffer: destination for pack, source
  /// for unpack), which corresponds to packed offset op.bytes_done().
  /// Work units crossing the budget boundary are split, so sender and
  /// receiver may fragment a message at different unit geometries (e.g.
  /// vector vs. contiguous endpoints). `dep` is a virtual-time dependency
  /// the kernels must wait for (e.g. the RDMA get that produced `contig`'s
  /// bytes).
  Result process_some(Op& op, void* contig, std::int64_t max_bytes,
                      vt::Time dep = 0);

  /// Process `op` against `contig` (its packed byte 0) until `limit` more
  /// packed bytes are done (-1: the whole op), in process_some calls of at
  /// most `chunk` bytes (0: one call), each ordered after `dep`; then
  /// finish(op). Returns the bytes moved and the last completion (`dep` if
  /// nothing ran).
  Result drain(Op& op, void* contig, vt::Time dep = 0, std::int64_t chunk = 0,
               DrainFlow flow = {}, std::int64_t limit = -1);

  /// Batch submission, stage 1 (stream-triggered chains): convert the
  /// op's ENTIRE unit list now - charging the full host conversion cost at
  /// this call, i.e. at chain-enqueue time - and upload it to one device
  /// descriptor array on the upload stream. After this, the op can be
  /// driven to completion by process_triggered() with zero host-clock
  /// involvement. No-op for vector-fast-path and cache-hit ops (they have
  /// no host conversion stage). Throws when the engine runs residues on a
  /// separate stream: that ablation shape re-orders units per window and
  /// is not expressible as a pre-enqueued chain (the verifier rejects the
  /// combination for the same reason).
  void stage_all(Op& op);

  /// Batch submission, stage 2: process up to `max_bytes` packed bytes as
  /// a *pre-enqueued* launch - the host clock is neither read nor
  /// advanced; the kernel is ordered after max(stream tail, dep) purely
  /// through stream/event dependencies, and `flow` is stamped on the op
  /// before the window is cut so its trace spans join the fragment's flow
  /// chain. Requires stage_all() first (or a vector/cached op).
  Result process_triggered(Op& op, void* contig, std::int64_t max_bytes,
                           vt::Time dep, std::uint64_t flow);

  /// Release per-op scratch; move the op's unit list into the cache if
  /// the op completed a full conversion. Call once per op.
  void finish(Op& op);

  /// Block the host clock until all kernels of this engine completed.
  void synchronize();

  sg::Stream& pack_stream() { return kernel_stream_; }
  DevCache& cache() { return cache_; }
  const EngineConfig& config() const { return cfg_; }
  sg::HostContext& ctx() { return ctx_; }

 private:
  // `trig` non-null marks a pre-enqueued (stream-triggered) call: launches
  // are ordered after max(stream tail, *trig) and the host clock is never
  // read or advanced (see LaunchKernel's triggered_at).
  Result process_vector(Op& op, void* contig, std::int64_t max_bytes,
                        vt::Time dep, const vt::Time* trig = nullptr);
  Result process_dev(Op& op, void* contig, std::int64_t max_bytes,
                     vt::Time dep, const vt::Time* trig = nullptr);
  /// Convert up to `limit` more units onto op.units_, charging host time;
  /// returns how many were converted.
  std::size_t convert_chunk(Op& op, std::size_t limit);
  /// Upload a window's units to op's device scratch; returns the device
  /// pointer and orders the kernel stream after the upload.
  const CudaDevDist* upload_descriptors(Op& op, const DevWindow& win);
  vt::Time launch(Op& op, const DevWindow& win, std::int64_t pk_base,
                  void* contig, const CudaDevDist* dev_units,
                  sg::Stream& stream, const vt::Time* triggered_at = nullptr);

  sg::HostContext& ctx_;
  EngineConfig cfg_;
  sg::Stream kernel_stream_;
  sg::Stream upload_stream_;
  sg::Stream residue_stream_;  // used only with residue_separate_stream
  DevCache cache_;
  bool validate_ = false;  // DEV validation: on under the access checker
};

}  // namespace gpuddt::core

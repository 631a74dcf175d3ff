#include "core/engine.h"

#include <algorithm>
#include <stdexcept>

#include "check/dev_invariants.h"
#include "mpi/pml.h"
#include "obs/recorder.h"

namespace gpuddt::core {

namespace {

/// Units converted per pipelined refill (the host conversion chunk).
constexpr std::size_t kConvertChunkUnits = 4096;

/// Bounds every DEV unit of (dt, count) must respect; see
/// check::validate_dev_window.
check::DevListBounds bounds_of(const mpi::Datatype& dt, std::int64_t count,
                               std::int64_t unit_bytes) {
  const std::int64_t tlb = dt.true_lb();
  return {tlb, tlb + (count - 1) * dt.extent() + dt.true_extent(),
          dt.size() * count, unit_bytes};
}

}  // namespace

GpuDatatypeEngine::GpuDatatypeEngine(sg::HostContext& ctx, EngineConfig cfg)
    : ctx_(ctx),
      cfg_(cfg),
      kernel_stream_(&ctx.dev(), "engine.kernel"),
      upload_stream_(&ctx.dev(), "engine.upload"),
      residue_stream_(&ctx.dev(), "engine.residue") {
  if (cfg_.unit_bytes < kMinUnitBytes)
    throw std::invalid_argument("EngineConfig: unit_bytes below 256B floor");
  cache_.set_recorder(cfg_.recorder);
  cache_.set_max_bytes(cfg_.cache_max_bytes);
  // DEV windows and cached lists are validated whenever the machine runs
  // under the access checker (docs/checking.md).
  validate_ = ctx.machine->observer() != nullptr;
  cache_.set_validation(validate_);
}

GpuDatatypeEngine::~GpuDatatypeEngine() = default;

std::unique_ptr<GpuDatatypeEngine::Op> GpuDatatypeEngine::start(
    Dir dir, mpi::DatatypePtr dt, std::int64_t count, void* user_base) {
  auto op = std::make_unique<Op>();
  op->dir_ = dir;
  op->dt_ = std::move(dt);
  op->count_ = count;
  op->user_base_ = static_cast<std::byte*>(user_base);
  op->total_ = op->dt_->size() * count;
  op->pattern_ = op->dt_->regular_pattern(count);
  if (op->pattern_) {
    obs::count(cfg_.recorder, "engine.ops.vector");
    return op;  // vector fast path: no conversion at all
  }

  if (cfg_.cache_enabled) {
    op->cached_ = cache_.find(op->dt_, count, cfg_.unit_bytes);
    if (op->cached_ != nullptr) {
      op->cached_dev_ = cache_.device_units(ctx_, *op->cached_);
      obs::count(cfg_.recorder, "engine.ops.dev_cached");
      return op;
    }
  }
  obs::count(cfg_.recorder, "engine.ops.dev");
  op->cursor_ = DevCursor(op->dt_, count, cfg_.unit_bytes);
  return op;
}

GpuDatatypeEngine::Result GpuDatatypeEngine::process_some(
    Op& op, void* contig, std::int64_t max_bytes, vt::Time dep) {
  if (op.done() || max_bytes <= 0) return {0, kernel_stream_.tail()};
  if (op.pattern_) return process_vector(op, contig, max_bytes, dep);
  return process_dev(op, contig, max_bytes, dep);
}

GpuDatatypeEngine::Result GpuDatatypeEngine::drain(Op& op, void* contig,
                                                   vt::Time dep,
                                                   std::int64_t chunk,
                                                   DrainFlow flow,
                                                   std::int64_t limit) {
  const std::int64_t end =
      limit < 0 ? op.total_ : std::min(op.total_, op.pos_ + limit);
  Result out{0, dep};
  for (std::int64_t k = 0; op.pos_ < end; ++k) {
    if (flow.rank >= 0) op.flow_ = mpi::frag_flow(flow.rank, flow.id, k);
    const std::int64_t left = end - op.pos_;
    const Result r =
        process_some(op, static_cast<std::byte*>(contig) + op.pos_,
                     chunk > 0 ? std::min(chunk, left) : left, dep);
    if (r.bytes == 0) break;
    out.bytes += r.bytes;
    out.ready = r.ready;
  }
  finish(op);
  return out;
}

void GpuDatatypeEngine::stage_all(Op& op) {
  if (op.done() || op.pattern_ || op.cached_ != nullptr ||
      op.batch_dev_ != nullptr)
    return;
  if (cfg_.residue_separate_stream) {
    throw std::logic_error(
        "stage_all: residue_separate_stream reorders units per window and "
        "cannot be pre-enqueued as a stream-triggered chain");
  }
  // Convert the WHOLE remaining unit list now - the full host conversion
  // cost lands here, at chain-enqueue time - and upload it as one device
  // array. Chain kernels later index into it by unit position, so there is
  // no per-window upload and no descriptor double-buffer WAR hazard.
  while (convert_chunk(op, kConvertChunkUnits) > 0) {
  }
  const auto bytes =
      static_cast<std::int64_t>(op.units_.size() * sizeof(CudaDevDist));
  op.batch_dev_ = sg::Malloc(ctx_, static_cast<std::size_t>(bytes));
  const vt::Time t0 = ctx_.clock.now();
  const vt::Time done =
      sg::MemcpyAsync(ctx_, op.batch_dev_, op.units_.data(),
                      static_cast<std::size_t>(bytes), upload_stream_);
  sg::StreamWaitEvent(ctx_, kernel_stream_,
                      sg::EventRecord(ctx_, upload_stream_));
  obs::count(cfg_.recorder, "engine.desc_uploads");
  obs::count(cfg_.recorder, "engine.desc_upload_bytes", bytes);
  obs::trace(cfg_.recorder,
             {"desc_upload", "engine", t0, done, ctx_.device, bytes,
              cfg_.trace_pid, op.flow_, obs::Stage::kDesc});
}

GpuDatatypeEngine::Result GpuDatatypeEngine::process_triggered(
    Op& op, void* contig, std::int64_t max_bytes, vt::Time dep,
    std::uint64_t flow) {
  op.flow_ = flow;
  if (op.done() || max_bytes <= 0) return {0, kernel_stream_.tail()};
  if (op.pattern_) return process_vector(op, contig, max_bytes, dep, &dep);
  if (op.cached_ == nullptr && op.batch_dev_ == nullptr) {
    throw std::logic_error(
        "process_triggered: DEV op was not staged (call stage_all first)");
  }
  if (cfg_.residue_separate_stream) {
    throw std::logic_error(
        "process_triggered: residue_separate_stream needs per-window host "
        "descriptor uploads and cannot run as a pre-enqueued chain");
  }
  return process_dev(op, contig, max_bytes, dep, &dep);
}

vt::Time GpuDatatypeEngine::launch(Op& op, const DevWindow& win,
                                   std::int64_t pk_base, void* contig,
                                   const CudaDevDist* dev_units,
                                   sg::Stream& stream,
                                   const vt::Time* triggered_at) {
  obs::count(cfg_.recorder, "engine.kernels.dev");
  const vt::Time queued =
      std::max(triggered_at != nullptr ? *triggered_at : ctx_.clock.now(),
               stream.tail());
  const vt::Time ready =
      dev_kernel(ctx_, stream, op.dir_, op.user_base_, win, pk_base, contig,
                 dev_units, cfg_.kernel_blocks, triggered_at);
  obs::trace(cfg_.recorder,
             {"dev_kernel", "engine", queued, ready, ctx_.device,
              static_cast<std::int64_t>(win.size()), cfg_.trace_pid,
              op.flow_, obs::Stage::kKernel});
  return ready;
}

GpuDatatypeEngine::Result GpuDatatypeEngine::process_vector(
    Op& op, void* contig, std::int64_t max_bytes, vt::Time dep,
    const vt::Time* trig) {
  const std::int64_t lo = op.pos_;
  const std::int64_t hi = std::min(op.total_, lo + max_bytes);
  sg::StreamWaitEvent(ctx_, kernel_stream_, sg::Event{dep});
  obs::count(cfg_.recorder, "engine.kernels.vector");
  const vt::Time queued =
      std::max(trig != nullptr ? *trig : ctx_.clock.now(),
               kernel_stream_.tail());
  const vt::Time ready =
      vector_kernel(ctx_, kernel_stream_, op.dir_, op.user_base_,
                    *op.pattern_, lo, hi, contig, cfg_.kernel_blocks, trig);
  op.pos_ = hi;
  obs::count(cfg_.recorder,
             op.dir_ == Dir::kPack ? "engine.pack.bytes.vector"
                                   : "engine.unpack.bytes.vector",
             hi - lo);
  obs::trace(cfg_.recorder,
             {"vector_kernel", "engine", queued, ready, ctx_.device, hi - lo,
              cfg_.trace_pid, op.flow_, obs::Stage::kKernel});
  return {hi - lo, ready};
}

std::size_t GpuDatatypeEngine::convert_chunk(Op& op, std::size_t limit) {
  const std::size_t old = op.units_.size();
  op.units_.resize(old + limit);
  const std::int64_t pieces_before = op.cursor_.pieces_visited();
  const std::size_t n = op.cursor_.next_units(
      std::span<CudaDevDist>(op.units_.data() + old, limit));
  op.units_.resize(old + n);
  obs::count(cfg_.recorder, "engine.units.converted",
             static_cast<std::int64_t>(n));
  // Host-side conversion cost (Section 3.2's first stage).
  const sg::CostModel& cm = ctx_.cost();
  const std::int64_t pieces = op.cursor_.pieces_visited() - pieces_before;
  const auto adv = static_cast<vt::Time>(
      cm.cpu_dev_emit_ns * static_cast<double>(n) +
      cm.cpu_block_walk_ns * static_cast<double>(pieces));
  const vt::Time t0 = ctx_.clock.now();
  ctx_.clock.advance(adv);
  // The slice of this conversion that ran while earlier kernels of the op
  // were still executing is pipeline overlap (Section 3.2's win).
  op.conv_ns_ += adv;
  op.conv_overlap_ns_ +=
      std::clamp<vt::Time>(kernel_stream_.tail() - t0, 0, adv);
  obs::trace(cfg_.recorder, {"convert_chunk", "engine", t0, t0 + adv,
                             ctx_.device, static_cast<std::int64_t>(n),
                             cfg_.trace_pid, op.flow_, obs::Stage::kConv});
  return n;
}

const CudaDevDist* GpuDatatypeEngine::upload_descriptors(
    Op& op, const DevWindow& win) {
  const std::span<const CudaDevDist> units = win.units;
  if (units.empty()) return nullptr;
  const int slot = (op.desc_slot_ + 1) % kDescSlots;
  op.desc_slot_ = slot;
  if (op.desc_cap_units_[slot] < units.size()) {
    if (op.desc_dev_[slot] != nullptr) sg::Free(ctx_, op.desc_dev_[slot]);
    op.desc_cap_units_[slot] = std::max<std::size_t>(units.size(), 256);
    op.desc_dev_[slot] =
        sg::Malloc(ctx_, op.desc_cap_units_[slot] * sizeof(CudaDevDist));
  }
  // The kernel launched against this slot two windows ago may still be in
  // flight; overwriting before it finishes would be a WAR hazard.
  sg::StreamWaitEvent(ctx_, upload_stream_,
                      sg::Event{op.desc_last_use_[slot]});
  // Upload on a dedicated stream; the kernel stream waits on it, so the
  // next conversion chunk (host) overlaps the current kernel (device).
  const auto bytes =
      static_cast<std::int64_t>(units.size() * sizeof(CudaDevDist));
  const vt::Time t0 = ctx_.clock.now();
  const vt::Time done = sg::MemcpyAsync(ctx_, op.desc_dev_[slot],
                                        units.data(),
                                        units.size() * sizeof(CudaDevDist),
                                        upload_stream_);
  sg::StreamWaitEvent(ctx_, kernel_stream_,
                      sg::EventRecord(ctx_, upload_stream_));
  obs::count(cfg_.recorder, "engine.desc_uploads");
  obs::count(cfg_.recorder, "engine.desc_upload_bytes", bytes);
  obs::trace(cfg_.recorder,
             {"desc_upload", "engine", t0, done, ctx_.device, bytes,
              cfg_.trace_pid, op.flow_, obs::Stage::kDesc});
  return static_cast<const CudaDevDist*>(op.desc_dev_[slot]);
}

GpuDatatypeEngine::Result GpuDatatypeEngine::process_dev(
    Op& op, void* contig, std::int64_t max_bytes, vt::Time dep,
    const vt::Time* trig) {
  sg::StreamWaitEvent(ctx_, kernel_stream_, sg::Event{dep});
  const std::int64_t pk_base = op.pos_;
  const std::int64_t budget = std::min(max_bytes, op.total_ - op.pos_);
  std::int64_t bytes = 0;
  vt::Time ready = kernel_stream_.tail();
  const bool cached = op.cached_ != nullptr;
  // A batch-staged op behaves like a cache hit: the full unit list sits in
  // units_ with a matching device array, so there is no refill and no
  // per-window descriptor upload.
  const bool batched = !cached && op.batch_dev_ != nullptr;

  while (bytes < budget) {
    // The unit list the window is cut from.
    const std::vector<CudaDevDist>& list =
        cached ? op.cached_->units : op.units_;
    if (op.unit_pos_ == list.size()) {
      if (cached || batched) break;  // exhausted (coincides with op.done())
      // Convert the next chunk onto the list: one pipelined chunk, or
      // everything when conversion pipelining is disabled (Figure 7's
      // plain mode).
      const std::size_t chunk =
          cfg_.pipeline_conversion
              ? kConvertChunkUnits
              : static_cast<std::size_t>((op.total_ - op.pos_ - bytes) /
                                             cfg_.unit_bytes +
                                         2);
      if (convert_chunk(op, chunk) == 0) break;
    }
    // Cut the window in place. Units tile the packed stream in order (a
    // checked DEV invariant), so the window ends at the last unit that
    // starts before the budget's end; that unit is cut there.
    const std::size_t first = op.unit_pos_;
    const std::int64_t win_pk = pk_base + bytes;
    const std::int64_t win_end = pk_base + budget;
    const CudaDevDist* lo = list.data() + first;
    const CudaDevDist* hi = std::partition_point(
        lo, list.data() + list.size(),
        [&](const CudaDevDist& u) { return u.pk_disp < win_end; });
    const std::int64_t last_end = hi[-1].pk_disp + hi[-1].length;
    const std::int64_t cut = std::max<std::int64_t>(last_end - win_end, 0);
    const DevWindow win{{lo, hi}, op.unit_off_, cut};
    bytes = last_end - cut - pk_base;
    // A cut unit is where the next window starts.
    op.unit_pos_ =
        static_cast<std::size_t>(hi - list.data()) - (cut > 0 ? 1 : 0);
    op.unit_off_ = cut > 0 ? hi[-1].length - cut : 0;
    // Units served from the cache are counted per window: a unit split
    // across windows counts in each, and the companion _distinct counter
    // counts it at its first window only.
    if (cached) {
      const auto n = static_cast<std::int64_t>(win.size());
      obs::count(cfg_.recorder, "engine.units.from_cache", n);
      obs::count(cfg_.recorder, "engine.units.from_cache_distinct",
                 win.skip > 0 ? n - 1 : n);
    }
    if (validate_ && op.count_ > 0) {
      check::validate_dev_window(win,
                                 bounds_of(*op.dt_, op.count_,
                                           cfg_.unit_bytes),
                                 win_pk, /*contiguous=*/true,
                                 "engine.window", cfg_.recorder);
    }
    if (!cfg_.residue_separate_stream) {
      const CudaDevDist* dev_units =
          cached     ? op.cached_dev_ + first
          : batched  ? static_cast<const CudaDevDist*>(op.batch_dev_) + first
                     : upload_descriptors(op, win);
      const vt::Time r =
          launch(op, win, pk_base, contig, dev_units, kernel_stream_, trig);
      if (!cached && !batched) {
        op.desc_last_use_[op.desc_slot_] =
            std::max(op.desc_last_use_[op.desc_slot_], r);
      }
      ready = std::max(ready, r);
    } else {
      // The Section 3.2 alternative: full-size units in the main kernel,
      // residues delegated to a second (lower-priority) stream - one
      // extra launch per window, which is exactly the overhead the paper
      // avoids by treating residues like every other unit.
      //
      // The split reorders units, so neither the list the window views
      // nor the cached device array lines up index-for-index with what
      // each kernel is handed. Build one stable split of the window's
      // units as cut (full units first, then residues), upload
      // descriptors in that order, and give each launch its own
      // sub-span; the upload on the cached path is the honest extra cost
      // of this ablation variant.
      auto& split = op.split_;
      split.clear();
      split.reserve(win.size());
      for (std::size_t i = 0; i < win.size(); ++i)
        if (win[i].length == cfg_.unit_bytes) split.push_back(win[i]);
      const std::size_t n_full = split.size();
      for (std::size_t i = 0; i < win.size(); ++i)
        if (win[i].length != cfg_.unit_bytes) split.push_back(win[i]);
      if (validate_ && op.count_ > 0) {
        check::validate_dev_window({split},
                                   bounds_of(*op.dt_, op.count_,
                                             cfg_.unit_bytes),
                                   win_pk, /*contiguous=*/false,
                                   "engine.window.residue_split",
                                   cfg_.recorder);
      }
      const CudaDevDist* dev_split = upload_descriptors(op, {split});
      sg::StreamWaitEvent(ctx_, residue_stream_,
                          sg::EventRecord(ctx_, upload_stream_));
      const std::span<const CudaDevDist> full(split.data(), n_full);
      const std::span<const CudaDevDist> residue(split.data() + n_full,
                                                 split.size() - n_full);
      vt::Time slot_use = 0;
      if (!full.empty()) {
        const vt::Time r =
            launch(op, {full}, pk_base, contig, dev_split, kernel_stream_);
        slot_use = std::max(slot_use, r);
        ready = std::max(ready, r);
      }
      if (!residue.empty()) {
        const vt::Time r = launch(op, {residue}, pk_base, contig,
                                  dev_split + n_full, residue_stream_);
        slot_use = std::max(slot_use, r);
        ready = std::max(ready, r);
      }
      op.desc_last_use_[op.desc_slot_] =
          std::max(op.desc_last_use_[op.desc_slot_], slot_use);
    }
  }
  op.pos_ += bytes;
  obs::count(cfg_.recorder,
             op.dir_ == Dir::kPack
                 ? (cached ? "engine.pack.bytes.dev_cached"
                           : "engine.pack.bytes.dev")
                 : (cached ? "engine.unpack.bytes.dev_cached"
                           : "engine.unpack.bytes.dev"),
             bytes);
  return {bytes, ready};
}

void GpuDatatypeEngine::finish(Op& op) {
  if (op.batch_dev_ != nullptr) {
    sg::Free(ctx_, op.batch_dev_);
    op.batch_dev_ = nullptr;
  }
  for (int slot = 0; slot < kDescSlots; ++slot) {
    if (op.desc_dev_[slot] != nullptr) {
      sg::Free(ctx_, op.desc_dev_[slot]);
      op.desc_dev_[slot] = nullptr;
      op.desc_cap_units_[slot] = 0;
    }
    op.desc_last_use_[slot] = 0;
  }
  if (op.conv_ns_ > 0) {
    obs::observe(cfg_.recorder, "engine.op.conv_overlap_pct",
                 100 * op.conv_overlap_ns_ / op.conv_ns_);
  }
  if (op.done() && cfg_.cache_enabled && op.cached_ == nullptr &&
      !op.pattern_.has_value()) {
    // The list grew a chunk at a time; the cache keeps it for as long as
    // the entry lives, without the last chunk's spare capacity.
    op.units_.shrink_to_fit();
    cache_.insert(ctx_, op.dt_, op.count_, cfg_.unit_bytes,
                  std::move(op.units_));
  }
}

void GpuDatatypeEngine::synchronize() {
  sg::StreamSynchronize(ctx_, kernel_stream_);
  sg::StreamSynchronize(ctx_, upload_stream_);
  sg::StreamSynchronize(ctx_, residue_stream_);
}

}  // namespace gpuddt::core

#include "rma/window.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

#include "obs/recorder.h"
#include "simgpu/staging.h"

namespace gpuddt::rma {

namespace {

/// One-sided-op observability (docs/metrics.md `rma.*` family): the
/// layer-op record (obs::record_layer_op: call and byte counters, one
/// trace span per call, the flow completion) plus bytes split
/// contiguous/packed by the layouts on both sides and by where the
/// staging copy lives. `end` is the op's virtual completion (the
/// epoch-horizon contribution), so spans from back-to-back puts overlap
/// in the timeline exactly as the fence sees them.
void record_rma(mpi::Comm& comm, const char* op, vt::Time begin,
                vt::Time end, std::int64_t bytes, bool contiguous,
                bool device_staging, std::uint64_t flow = 0,
                std::uint64_t shape = 0) {
  obs::Recorder* rec = comm.process().config().recorder;
  if (rec == nullptr) return;
  if (bytes > 0) {
    obs::count(rec,
               contiguous ? "rma.bytes.contiguous" : "rma.bytes.packed",
               bytes);
    obs::count(rec,
               device_staging ? "rma.bytes.staged_device"
                              : "rma.bytes.staged_host",
               bytes);
  }
  // One-sided ops are single-participant flows: the origin drives both
  // halves, so its op span closes the flow for the latency engine.
  obs::record_layer_op(
      *rec, {"rma", op, begin, end, comm.rank(), bytes, flow, shape, 1});
}
}  // namespace

Window::Window(mpi::Comm comm, void* base, std::int64_t bytes)
    : comm_(comm), coll_(comm) {
  core::EngineConfig ec;
  ec.recorder = comm_.process().config().recorder;
  ec.trace_pid = comm_.rank();
  engine_ =
      std::make_unique<core::GpuDatatypeEngine>(comm_.process().gpu(), ec);
  // Collective creation: exchange window bases and sizes.
  const int n = comm_.size();
  bases_.resize(static_cast<std::size_t>(n));
  sizes_.resize(static_cast<std::size_t>(n));
  struct Desc {
    std::uint64_t base;
    std::int64_t size;
  };
  std::vector<Desc> all(static_cast<std::size_t>(n));
  Desc mine{reinterpret_cast<std::uint64_t>(base), bytes};
  coll_.allgather(&mine, all.data(),
                  static_cast<std::int64_t>(sizeof(Desc)), mpi::kByte());
  for (int r = 0; r < n; ++r) {
    bases_[static_cast<std::size_t>(r)] =
        reinterpret_cast<std::byte*>(all[static_cast<std::size_t>(r)].base);
    sizes_[static_cast<std::size_t>(r)] =
        all[static_cast<std::size_t>(r)].size;
  }
}

Window::~Window() {
  // Here and not in the engine's destructor: the window lives inside its
  // rank's run, so its machine is alive, while an engine may outlive its
  // machine (a test can keep a plugin past its Runtime).
  engine_->cache().free_device_copies(comm_.process().gpu());
}

void Window::fence() {
  // Remote completion: every rank's epoch horizon must have passed for
  // everyone before the epoch may close.
  const vt::Time t_begin = comm_.process().clock().now();
  std::int64_t mine = epoch_horizon_;
  std::int64_t global = 0;
  coll_.allreduce(&mine, &global, 1, mpi::kInt64(), mpi::ReduceOp::kMax);
  comm_.process().clock().wait_until(global);
  epoch_horizon_ = 0;
  record_rma(comm_, "fence", t_begin, comm_.process().clock().now(),
             /*bytes=*/0, /*contiguous=*/true, /*device_staging=*/false);
}

std::byte* Window::target_ptr(int target, std::int64_t disp,
                              std::int64_t bytes) const {
  if (target < 0 || target >= comm_.size())
    throw std::invalid_argument("Window: bad target rank");
  if (disp < 0 || disp + bytes > sizes_[static_cast<std::size_t>(target)])
    throw std::invalid_argument("Window: access outside the target window");
  return bases_[static_cast<std::size_t>(target)] + disp;
}

vt::Time Window::pack_unpack(Dir dir, void* buf, std::int64_t count,
                             const mpi::DatatypePtr& dt, std::byte* packed,
                             vt::Time dep, std::uint64_t flow_id) {
  mpi::Process& p = comm_.process();
  if (p.runtime().machine().is_device_ptr(buf)) {
    auto op = engine_->start(dir, dt, count, buf);
    // Fragment flow ids (docs/tracing.md): both halves of one one-sided
    // op stamp the op-level request id its caller drew from the PML's
    // counter, so their engine spans join the same flow grammar as
    // point-to-point fragments - and the same logical flow as each other.
    return engine_->drain(*op, packed, dep, 0, {p.rank(), flow_id}).ready;
  }
  const std::span<std::byte> bytes(
      packed, static_cast<std::size_t>(dt->size() * count));
  p.pml().charge_cpu_pack(dir == Dir::kPack
                              ? mpi::cpu_pack(dt, count, buf, bytes)
                              : mpi::cpu_unpack(dt, count, bytes, buf));
  return std::max(dep, p.clock().now());
}

void Window::put(const void* origin, std::int64_t origin_count,
                 const mpi::DatatypePtr& origin_dt, int target,
                 std::int64_t target_disp, std::int64_t target_count,
                 const mpi::DatatypePtr& target_dt) {
  transfer(/*is_get=*/false,
           {const_cast<void*>(origin), origin_count, origin_dt}, target,
           target_disp, target_count, target_dt);
}

void Window::get(void* origin, std::int64_t origin_count,
                 const mpi::DatatypePtr& origin_dt, int target,
                 std::int64_t target_disp, std::int64_t target_count,
                 const mpi::DatatypePtr& target_dt) {
  transfer(/*is_get=*/true, {origin, origin_count, origin_dt}, target,
           target_disp, target_count, target_dt);
}

void Window::transfer(bool is_get, Layout origin, int target,
                      std::int64_t target_disp, std::int64_t target_count,
                      const mpi::DatatypePtr& target_dt) {
  const char* name = is_get ? "get" : "put";
  const std::int64_t total = origin.dt->size() * origin.count;
  if (total != target_dt->size() * target_count) {
    throw std::invalid_argument(std::string("Window::") + name +
                                ": size mismatch");
  }
  if (total == 0) return;
  const Layout tgt{target_ptr(target, target_disp,
                              target_dt->true_lb() + target_dt->true_extent() +
                                  (target_count - 1) * target_dt->extent()),
                   target_count, target_dt};
  mpi::Process& p = comm_.process();
  const vt::Time t_begin = p.clock().now();
  // Stage through a contiguous buffer on the origin's device (or host if
  // neither side is device-resident): pack, then scatter into the other
  // layout - both halves driven by the origin. A put packs the origin, a
  // get packs the target.
  const bool any_device = p.runtime().machine().is_device_ptr(origin.buf) ||
                          p.runtime().machine().is_device_ptr(tgt.buf);
  std::byte* staging;
  std::vector<std::byte> host_staging;
  if (any_device) {
    staging = static_cast<std::byte*>(
        sg::Malloc(p.gpu(), static_cast<std::size_t>(total)));
  } else {
    host_staging.resize(static_cast<std::size_t>(total));
    staging = host_staging.data();
  }
  const Layout& from = is_get ? tgt : origin;
  const Layout& to = is_get ? origin : tgt;
  const std::uint64_t op_id = p.pml().allocate_id();
  const vt::Time packed = pack_unpack(Dir::kPack, from.buf, from.count, from.dt,
                                      staging, p.clock().now(), op_id);
  const vt::Time done = pack_unpack(Dir::kUnpack, to.buf, to.count, to.dt,
                                    staging, packed, op_id);
  epoch_horizon_ = std::max(epoch_horizon_, done);
  // A get is locally complete when it returns.
  if (is_get) p.clock().wait_until(done);
  record_rma(comm_, name, t_begin, done, total,
             origin.dt->is_contiguous(origin.count) &&
                 target_dt->is_contiguous(target_count),
             any_device, mpi::frag_flow(p.rank(), op_id, 0),
             target_dt->shape_digest());
  if (any_device) sg::Free(p.gpu(), staging);
}

void Window::accumulate(const void* origin, std::int64_t origin_count,
                        const mpi::DatatypePtr& origin_dt, int target,
                        std::int64_t target_disp, std::int64_t target_count,
                        const mpi::DatatypePtr& target_dt, mpi::ReduceOp op) {
  const std::int64_t total = origin_dt->size() * origin_count;
  if (total != target_dt->size() * target_count)
    throw std::invalid_argument("Window::accumulate: size mismatch");
  if (total == 0) return;
  const mpi::Signature& sig = origin_dt->signature();
  if (sig.runs.size() != 1 || sig.overflow_hash != 0)
    throw std::invalid_argument(
        "Window::accumulate: single-primitive datatypes only");
  std::byte* tptr = target_ptr(
      target, target_disp,
      target_dt->true_lb() + target_dt->true_extent() +
          (target_count - 1) * target_dt->extent());
  mpi::Process& p = comm_.process();
  const vt::Time t_begin = p.clock().now();

  // Read-modify-write on the packed representation, staged through host
  // memory (where the ALU work happens). The scratch vectors are plain
  // malloc'd host memory the engine reads and writes when either side is
  // device-resident; register them so the access checker sees those
  // ranges (simgpu/staging.h).
  std::vector<std::byte> ours(static_cast<std::size_t>(total));
  std::vector<std::byte> theirs(static_cast<std::size_t>(total));
  sg::ScopedStagingRegistration reg_ours(
      p.runtime().machine(), ours.data(), ours.size());
  sg::ScopedStagingRegistration reg_theirs(
      p.runtime().machine(), theirs.data(), theirs.size());
  const std::uint64_t op_id = p.pml().allocate_id();
  const vt::Time t1 =
      pack_unpack(Dir::kPack, const_cast<void*>(origin), origin_count,
                  origin_dt, ours.data(), p.clock().now(), op_id);
  const vt::Time t2 =
      pack_unpack(Dir::kPack, tptr, target_count, target_dt, theirs.data(),
                  std::max(t1, p.clock().now()), op_id);
  // Element-wise combine (host ALU; ~4 GB/s like the collectives). Ranks
  // run one at a time and nothing here suspends, so the read-modify-write
  // is as atomic as MPI requires.
  mpi::apply_op(op, sig.runs[0].prim, theirs.data(), ours.data(), total);
  p.clock().advance(vt::transfer_time(total, 4.0));
  const vt::Time done =
      pack_unpack(Dir::kUnpack, tptr, target_count, target_dt, theirs.data(),
                  std::max(t2, p.clock().now()), op_id);
  epoch_horizon_ = std::max(epoch_horizon_, done);
  record_rma(comm_, "accumulate", t_begin, done, total,
             origin_dt->is_contiguous(origin_count) &&
                 target_dt->is_contiguous(target_count),
             /*device_staging=*/false, mpi::frag_flow(p.rank(), op_id, 0),
             target_dt->shape_digest());
}

}  // namespace gpuddt::rma

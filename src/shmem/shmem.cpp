#include "shmem/shmem.h"

#include <cstring>
#include <stdexcept>

#include "mpi/pml.h"
#include "obs/recorder.h"

namespace gpuddt::shmem {

namespace {

/// The initiator-side engine carries the PE's rank so its kernel trace
/// events land under the right rank process in the Chrome export.
core::EngineConfig pe_engine_cfg(mpi::Process& p) {
  core::EngineConfig ec;
  ec.recorder = p.config().recorder;
  ec.trace_pid = p.rank();
  return ec;
}

/// One-sided-op observability (docs/metrics.md `shmem.*` family): the
/// layer-op record (obs::record_layer_op: call + byte counters, one trace
/// span per call, the flow completion) plus bytes split direct (RDMA
/// straight from/to symmetric memory) vs. staged (datatype ops bounced
/// through a packed device staging buffer).
void record_shmem(mpi::Process& p, const char* op, vt::Time begin,
                  vt::Time end, std::int64_t bytes, bool staged,
                  std::uint64_t flow = 0, std::uint64_t shape = 0) {
  obs::Recorder* rec = p.config().recorder;
  if (rec == nullptr) return;
  if (bytes > 0)
    obs::count(rec, staged ? "shmem.bytes.staged" : "shmem.bytes.direct",
               bytes);
  // Datatype ops close their flow here: the initiating PE drives both the
  // pack and unpack halves, so this is the whole-op completion.
  obs::record_layer_op(
      *rec, {"shmem", op, begin, end, p.rank(), bytes, flow, shape, 1});
}

}  // namespace

SymmetricHeap::SymmetricHeap(mpi::Runtime& rt, std::size_t bytes_per_pe)
    : bytes_per_pe_(bytes_per_pe) {
  bases_.resize(rt.config().world_size);
  for (int r = 0; r < rt.config().world_size; ++r) {
    // Carve each PE's heap out of its device's arena directly (setup-time
    // action, no virtual cost: mirrors the symmetric heap created at
    // shmem_init). Like any fresh allocation it is poison under the
    // checker.
    bases_[r] = rt.machine()
                    .device(rt.device_of(r))
                    .arena()
                    .allocate(bytes_per_pe);
    rt.machine().poison_fresh(bases_[r], bytes_per_pe);
  }
}

Pe::Pe(mpi::Process& p, SymmetricHeap& heap)
    : proc_(p), heap_(heap), engine_(p.gpu(), pe_engine_cfg(p)) {}

Pe::~Pe() {
  // Here and not in the engine's destructor, as in rma::Window: the PE
  // lives inside its rank's run, so its device is still alive.
  engine_.cache().free_device_copies(proc_.gpu());
}

void* Pe::malloc(std::size_t bytes) {
  const std::size_t aligned = (bytes + 511) / 512 * 512;
  if (alloc_cursor_ + aligned > heap_.bytes_per_pe())
    throw std::bad_alloc();
  void* p = heap_.base(my_pe()) + alloc_cursor_;
  alloc_cursor_ += aligned;
  return p;
}

std::byte* Pe::translate(const void* local_sym, int pe) const {
  const auto* b = static_cast<const std::byte*>(local_sym);
  const std::byte* mine = heap_.base(my_pe());
  if (b < mine || b >= mine + heap_.bytes_per_pe())
    throw std::invalid_argument("shmem: address not on the symmetric heap");
  return heap_.base(pe) + (b - mine);
}

mpi::Btl& Pe::btl_to(int pe) {
  return proc_.runtime().btl_between(proc_.rank(), pe);
}

void Pe::putmem(void* dest, const void* src, std::size_t bytes, int pe) {
  putmem_nbi(dest, src, bytes, pe);
  quiet();
}

void Pe::getmem(void* dest, const void* src, std::size_t bytes, int pe) {
  getmem_nbi(dest, src, bytes, pe);
  quiet();
}

void Pe::putmem_nbi(void* dest, const void* src, std::size_t bytes, int pe) {
  std::byte* remote = translate(dest, pe);
  const vt::Time begin = proc_.clock().now();
  const vt::Time t =
      btl_to(pe).rdma_put(proc_, pe, remote, src, bytes, begin);
  last_nbi_ = std::max(last_nbi_, t);
  record_shmem(proc_, "put", begin, t,
               static_cast<std::int64_t>(bytes), /*staged=*/false);
}

void Pe::getmem_nbi(void* dest, const void* src, std::size_t bytes, int pe) {
  const std::byte* remote = translate(src, pe);
  const vt::Time begin = proc_.clock().now();
  const vt::Time t =
      btl_to(pe).rdma_get(proc_, pe, dest, remote, bytes, begin);
  last_nbi_ = std::max(last_nbi_, t);
  record_shmem(proc_, "get", begin, t,
               static_cast<std::int64_t>(bytes), /*staged=*/false);
}

void Pe::iput(void* dest, const void* src, std::int64_t dst, std::int64_t sst,
              std::size_t n, std::size_t elem, int pe) {
  // Bytes are tallied by the per-element shmem.put records.
  obs::count(proc_.config().recorder, "shmem.iput.calls");
  auto* d = static_cast<std::byte*>(dest);
  const auto* s = static_cast<const std::byte*>(src);
  for (std::size_t i = 0; i < n; ++i) {
    putmem_nbi(d + static_cast<std::int64_t>(i) * dst *
                       static_cast<std::int64_t>(elem),
               s + static_cast<std::int64_t>(i) * sst *
                       static_cast<std::int64_t>(elem),
               elem, pe);
  }
  quiet();
}

void Pe::iget(void* dest, const void* src, std::int64_t dst, std::int64_t sst,
              std::size_t n, std::size_t elem, int pe) {
  obs::count(proc_.config().recorder, "shmem.iget.calls");
  auto* d = static_cast<std::byte*>(dest);
  const auto* s = static_cast<const std::byte*>(src);
  for (std::size_t i = 0; i < n; ++i) {
    getmem_nbi(d + static_cast<std::int64_t>(i) * dst *
                       static_cast<std::int64_t>(elem),
               s + static_cast<std::int64_t>(i) * sst *
                       static_cast<std::int64_t>(elem),
               elem, pe);
  }
  quiet();
}

void Pe::put_datatype(void* dest, const void* src, const mpi::DatatypePtr& dt,
                      std::int64_t count, int pe) {
  move_datatype(dest, src, dt, count, pe, /*is_get=*/false);
}

void Pe::get_datatype(void* dest, const void* src, const mpi::DatatypePtr& dt,
                      std::int64_t count, int pe) {
  move_datatype(dest, src, dt, count, pe, /*is_get=*/true);
}

void Pe::move_datatype(void* dest, const void* src,
                       const mpi::DatatypePtr& dt, std::int64_t count, int pe,
                       bool is_get) {
  using Dir = core::GpuDatatypeEngine::Dir;
  const std::int64_t total = dt->size() * count;
  if (total == 0) return;
  const vt::Time begin = proc_.clock().now();
  // Pack locally with the GPU engine, ship the packed stream one-sided,
  // and unpack on the other side (also with OUR engine: one-sided means
  // the target does not participate - the paper's "ideas are generic"
  // port; kernels run on the initiator's device, remote accesses priced
  // as peer traffic).
  void* from = is_get ? translate(src, pe) : const_cast<void*>(src);
  void* to = is_get ? dest : translate(dest, pe);
  auto* staging =
      static_cast<std::byte*>(sg::Malloc(proc_.gpu(), total));
  auto pack = engine_.start(Dir::kPack, dt, count, from);
  // One flow id for the whole op: fragment k's pack and unpack spans
  // chain together in the trace (docs/tracing.md flow grammar).
  const std::uint64_t id = proc_.pml().allocate_id();
  const core::DrainFlow flow{proc_.rank(), id};
  const vt::Time packed = engine_.drain(*pack, staging, 0, 0, flow).ready;
  auto unpack = engine_.start(Dir::kUnpack, dt, count, to);
  const vt::Time ready = engine_.drain(*unpack, staging, packed, 0, flow).ready;
  last_nbi_ = std::max(last_nbi_, ready);
  record_shmem(proc_, is_get ? "get_datatype" : "put_datatype", begin, ready,
               total, /*staged=*/true, mpi::frag_flow(proc_.rank(), id, 0),
               dt->shape_digest());
  sg::Free(proc_.gpu(), staging);
  quiet();
}

void Pe::quiet() {
  proc_.clock().wait_until(last_nbi_);
  engine_.synchronize();
}

void Pe::barrier_all() {
  quiet();
  mpi::Comm(proc_).barrier();
}

}  // namespace gpuddt::shmem

// MPI-3 style one-sided communication (RMA windows).
//
// The second "different programming paradigm" port the paper's conclusion
// anticipates (alongside OpenSHMEM): fence-synchronized windows whose
// put/get/accumulate accept MPI *datatypes on both sides* - the origin
// description is packed and the target description unpacked by the GPU
// datatype engine when the respective buffer is device-resident, exactly
// like the two ends of a Section 4 transfer, but driven entirely by the
// origin process.
//
// Synchronization model: active-target fence epochs (MPI_Win_fence). All
// ranks call fence(); one-sided operations issued between two fences are
// complete - locally and remotely, in virtual time too - once the closing
// fence returns. Conflicting accesses to the same target bytes within one
// epoch are the caller's responsibility (as in MPI).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/engine.h"
#include "mpi/coll.h"
#include "mpi/pml.h"
#include "mpi/runtime.h"

namespace gpuddt::rma {

class Window {
 public:
  /// Collective over all ranks of `comm`: every rank exposes
  /// [base, base + bytes). Buffers may be host or device memory.
  Window(mpi::Comm comm, void* base, std::int64_t bytes);
  /// Frees the device copies of the DEVs this window's engine cached.
  ~Window();

  Window(const Window&) = delete;
  Window& operator=(const Window&) = delete;

  std::int64_t size_at(int rank) const { return sizes_.at(rank); }

  /// Close the current epoch and open the next one (MPI_Win_fence):
  /// collective; on return every one-sided op issued by any rank in the
  /// closed epoch is globally complete.
  void fence();

  /// One-sided put: `origin_count` elements of `origin_dt` at `origin`
  /// land at the target's window offset `target_disp` (bytes) laid out as
  /// (`target_dt`, `target_count`). Signatures must carry the same byte
  /// count.
  void put(const void* origin, std::int64_t origin_count,
           const mpi::DatatypePtr& origin_dt, int target,
           std::int64_t target_disp, std::int64_t target_count,
           const mpi::DatatypePtr& target_dt);

  /// One-sided get: the reverse direction.
  void get(void* origin, std::int64_t origin_count,
           const mpi::DatatypePtr& origin_dt, int target,
           std::int64_t target_disp, std::int64_t target_count,
           const mpi::DatatypePtr& target_dt);

  /// One-sided accumulate (MPI_Accumulate): combine the origin data into
  /// the target with `op` (mpi::apply_op, the collectives' reduction).
  /// Restricted to datatypes over one of kInt32, kInt64, kFloat and
  /// kDouble; anything else throws std::invalid_argument.
  void accumulate(const void* origin, std::int64_t origin_count,
                  const mpi::DatatypePtr& origin_dt, int target,
                  std::int64_t target_disp, std::int64_t target_count,
                  const mpi::DatatypePtr& target_dt, mpi::ReduceOp op);

 private:
  using Dir = core::GpuDatatypeEngine::Dir;
  /// One side of a transfer: `count` elements of `dt` at `buf`.
  struct Layout {
    void* buf;
    std::int64_t count;
    const mpi::DatatypePtr& dt;
  };

  /// Pack (dt, count) at `buf` into `packed` (kPack) or scatter `packed`
  /// into it (kUnpack), with the GPU engine for device memory and the CPU
  /// engine otherwise. Returns the data-ready time. `flow_id` is the
  /// op-level PML request id both halves stamp their engine spans with
  /// (frag_flow; the fragment index restarts per half, so one
  /// put/get/accumulate reads as one logical flow).
  vt::Time pack_unpack(Dir dir, void* buf, std::int64_t count,
                       const mpi::DatatypePtr& dt, std::byte* packed,
                       vt::Time dep, std::uint64_t flow_id);
  /// put and get: pack one side into a staging buffer and unpack it into
  /// the other (a put packs the origin, a get the target).
  void transfer(bool is_get, Layout origin, int target,
                std::int64_t target_disp, std::int64_t target_count,
                const mpi::DatatypePtr& target_dt);
  std::byte* target_ptr(int target, std::int64_t disp,
                        std::int64_t bytes) const;

  mpi::Comm comm_;
  std::vector<std::byte*> bases_;   // every rank's window base
  std::vector<std::int64_t> sizes_;
  std::unique_ptr<core::GpuDatatypeEngine> engine_;
  mpi::Collectives coll_;
  vt::Time epoch_horizon_ = 0;  // completion of this epoch's one-sided ops
};

}  // namespace gpuddt::rma

// An OpenSHMEM-flavoured one-sided layer over the same substrate.
//
// The paper's conclusion: "the ideas are generic and can be easily ported
// not only to different programming paradigms (OpenSHMEM and OpenCL)...".
// This module demonstrates that port: a symmetric heap per PE (allocated
// in GPU memory), blocking put/get, strided iput/iget, and - the piece
// OpenSHMEM itself lacks (Section 2.1's critique of [11]) - *datatype*
// put/get that run the GPU datatype engine on both sides, so
// non-contiguous GPU data moves with the same pipelined machinery as the
// MPI path.
//
// Implementation notes: symmetric-heap offsets are identical on every PE,
// so a remote address is (peer heap base + local offset) - exactly the
// CUDA IPC model of Section 4.1. Puts/gets are one-sided BTL RDMA with
// virtual-time accounting; quiet() waits for outstanding one-sided ops.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/engine.h"
#include "mpi/btl.h"
#include "mpi/runtime.h"

namespace gpuddt::shmem {

class SymmetricHeap;

/// Per-PE handle (one per rank), created on a shared heap plan.
class Pe {
 public:
  Pe(mpi::Process& p, SymmetricHeap& heap);
  /// Frees the device copies of the DEVs this PE's engine cached.
  ~Pe();

  Pe(const Pe&) = delete;
  Pe& operator=(const Pe&) = delete;

  int my_pe() const { return proc_.rank(); }
  int n_pes() const { return proc_.size(); }

  /// Symmetric allocation: every PE must call with the same size sequence
  /// (collective, like shmem_malloc). Returns this PE's local address.
  void* malloc(std::size_t bytes);

  /// Blocking contiguous put/get of raw bytes.
  void putmem(void* dest, const void* src, std::size_t bytes, int pe);
  void getmem(void* dest, const void* src, std::size_t bytes, int pe);

  /// Non-blocking variants; completion at quiet().
  void putmem_nbi(void* dest, const void* src, std::size_t bytes, int pe);
  void getmem_nbi(void* dest, const void* src, std::size_t bytes, int pe);

  /// Strided put/get (shmem_iput/iget): `n` elements of `elem` bytes,
  /// destination stride `dst`, source stride `sst` (strides in elements).
  void iput(void* dest, const void* src, std::int64_t dst, std::int64_t sst,
            std::size_t n, std::size_t elem, int pe);
  void iget(void* dest, const void* src, std::int64_t dst, std::int64_t sst,
            std::size_t n, std::size_t elem, int pe);

  /// Datatype put: pack `count` elements of `dt` from local `src` with
  /// the GPU datatype engine and scatter into the peer's symmetric `dest`
  /// with the same layout. The extension the paper's Section 2.1 points
  /// out OpenSHMEM is missing.
  void put_datatype(void* dest, const void* src, const mpi::DatatypePtr& dt,
                    std::int64_t count, int pe);
  void get_datatype(void* dest, const void* src, const mpi::DatatypePtr& dt,
                    std::int64_t count, int pe);

  /// Complete all outstanding non-blocking one-sided operations.
  void quiet();

  /// Global barrier (also implies quiet, like shmem_barrier_all).
  void barrier_all();

  mpi::Process& process() { return proc_; }

 private:
  /// put_datatype / get_datatype: pack (dt, count) at `src` and unpack it
  /// at `dest`. A put's `dest` and a get's `src` are on PE `pe`.
  void move_datatype(void* dest, const void* src, const mpi::DatatypePtr& dt,
                     std::int64_t count, int pe, bool is_get);
  /// Translate a local symmetric address to the peer's address space.
  std::byte* translate(const void* local_sym, int pe) const;
  mpi::Btl& btl_to(int pe);

  mpi::Process& proc_;
  SymmetricHeap& heap_;
  core::GpuDatatypeEngine engine_;
  vt::Time last_nbi_ = 0;  // completion horizon of non-blocking ops
  std::size_t alloc_cursor_ = 0;
};

/// The world's symmetric heap: one same-sized device region per PE, at
/// identical offsets. Construct once, share with every rank.
class SymmetricHeap {
 public:
  SymmetricHeap(mpi::Runtime& rt, std::size_t bytes_per_pe);

  std::size_t bytes_per_pe() const { return bytes_per_pe_; }
  std::byte* base(int pe) const { return bases_.at(pe); }

 private:
  friend class Pe;
  std::size_t bytes_per_pe_;
  std::vector<std::byte*> bases_;
};

}  // namespace gpuddt::shmem

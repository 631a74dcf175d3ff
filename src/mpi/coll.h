// Datatype-aware collective operations.
//
// Classic algorithms built on the point-to-point layer, so every
// collective transparently benefits from the GPU datatype engine: device
// buffers and derived datatypes are first-class arguments everywhere
// (ScaLAPACK block-cyclic redistributions and FFT transposes are
// collective workloads in practice).
//
// Algorithms: binomial-tree bcast/reduce, linear gather/scatter, ring
// allgather, pairwise-exchange alltoall, reduce+bcast allreduce.
//
// Wire rule: a block of count > 1 elements whose datatype is contiguous
// for that count crosses the point-to-point layer as one element of
// contiguous(size x count, kByte), starting at its first data byte
// (buf + true_lb()); reduce ships its packed stream as the same type.
// Every other block keeps its (count, dt). Both forms carry the same
// bytes in the same order, so ranks may pass different layouts of one
// signature. The coll.* counters, shape digests and spans keep the
// caller's datatype.
#pragma once

#include <cstdint>

#include "mpi/pml.h"

namespace gpuddt::mpi {

/// Reduction operators for reduce/allreduce and one-sided accumulate.
enum class ReduceOp { kSum, kMax, kMin, kProd };

/// Combine `bytes` bytes of packed `p` elements element-wise:
/// acc[i] = acc[i] op in[i]. The one reduction both the collectives and
/// rma::Window::accumulate apply. Supports kInt32, kInt64, kFloat and
/// kDouble; throws std::invalid_argument for any other primitive.
void apply_op(ReduceOp op, Primitive p, std::byte* acc, const std::byte* in,
              std::int64_t bytes);

class Collectives {
 public:
  explicit Collectives(Comm comm) : comm_(comm) {}

  /// Broadcast `count` elements of `dt` at `buf` from `root` to all.
  void bcast(void* buf, std::int64_t count, const DatatypePtr& dt, int root);

  /// Gather each rank's `count` elements into `recvbuf` on `root`
  /// (rank i's contribution lands at element offset i*count).
  void gather(const void* sendbuf, void* recvbuf, std::int64_t count,
              const DatatypePtr& dt, int root);

  /// Inverse of gather.
  void scatter(const void* sendbuf, void* recvbuf, std::int64_t count,
               const DatatypePtr& dt, int root);

  /// Ring allgather: every rank ends with all contributions in rank order.
  void allgather(const void* sendbuf, void* recvbuf, std::int64_t count,
                 const DatatypePtr& dt);

  /// Pairwise-exchange alltoall: block j of `sendbuf` goes to rank j;
  /// block i of `recvbuf` comes from rank i. Blocks are `count` elements.
  void alltoall(const void* sendbuf, void* recvbuf, std::int64_t count,
                const DatatypePtr& dt);

  /// Element-wise reduction to `root`. Supported element types: kInt32,
  /// kInt64, kFloat, kDouble (dt must be one of those primitives or a
  /// contiguous/derived type over exactly one of them).
  void reduce(const void* sendbuf, void* recvbuf, std::int64_t count,
              const DatatypePtr& dt, ReduceOp op, int root);

  void allreduce(const void* sendbuf, void* recvbuf, std::int64_t count,
                 const DatatypePtr& dt, ReduceOp op);

  /// Dissemination barrier (same as Comm::barrier; here for completeness).
  void barrier() { comm_.barrier(); }

 private:
  /// Tag space reserved for collectives, keyed by a per-instance epoch so
  /// back-to-back collectives don't cross-match.
  int next_tag();

  Comm comm_;
  int epoch_ = 0;
};

}  // namespace gpuddt::mpi

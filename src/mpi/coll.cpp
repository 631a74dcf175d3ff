#include "mpi/coll.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/recorder.h"

namespace gpuddt::mpi {

namespace {

constexpr int kCollTagBase = 0x2fff0000;

/// Per-call observability for one collective on one rank: the layer-op
/// record (obs::record_layer_op: `coll.<op>.*` counters, one span over
/// the whole call, the flow completion) plus the collectives' own
/// counters (docs/metrics.md `coll.*` family). `sent()` tallies bytes
/// this rank injects into the transport, split packed/contiguous by the
/// datatype's layout and staged/direct by whether the algorithm bounces
/// the payload through a host staging copy (the packed-stream reduce
/// path) or hands user buffers straight to the point-to-point layer. The
/// destructor emits, so early returns (leaf ranks) are covered.
class CollSpan {
 public:
  CollSpan(Comm& comm, const char* op, std::uint64_t flow = 0,
           std::uint64_t shape = 0)
      : comm_(comm),
        rec_(comm.process().config().recorder),
        op_(op),
        flow_(flow),
        shape_(shape),
        begin_(comm.process().clock().now()) {}

  void sent(std::int64_t bytes, bool contiguous, bool staged) {
    bytes_ += bytes;
    (contiguous ? contiguous_ : packed_) += bytes;
    (staged ? staged_ : direct_) += bytes;
  }

  /// One reduction-operator application per element (docs/metrics.md
  /// `coll.<op>.op_flops`): a combining step over n elements is n FLOPs.
  void ops(std::int64_t elems) { flops_ += elems; }

  ~CollSpan() {
    if (rec_ == nullptr) return;
    if (flops_ > 0)
      obs::count(rec_, std::string("coll.") + op_ + ".op_flops", flops_);
    if (packed_ > 0) obs::count(rec_, "coll.bytes.packed", packed_);
    if (contiguous_ > 0)
      obs::count(rec_, "coll.bytes.contiguous", contiguous_);
    if (staged_ > 0) obs::count(rec_, "coll.bytes.staged", staged_);
    if (direct_ > 0) obs::count(rec_, "coll.bytes.direct", direct_);
    // Every member rank emits one completion against the shared
    // coll_flow id; the latency engine finalizes the flow when all
    // comm.size() participants have reported, spanning the earliest
    // begin to the latest end (obs/flowstats.h).
    obs::record_layer_op(
        *rec_, {"coll", op_, begin_, comm_.process().clock().now(),
                comm_.rank(), bytes_, flow_, shape_, comm_.size()});
  }

  CollSpan(const CollSpan&) = delete;
  CollSpan& operator=(const CollSpan&) = delete;

 private:
  Comm& comm_;
  obs::Recorder* rec_;
  const char* op_;
  std::uint64_t flow_ = 0;
  std::uint64_t shape_ = 0;
  std::int64_t begin_;
  std::int64_t bytes_ = 0;
  std::int64_t flops_ = 0;
  std::int64_t packed_ = 0;
  std::int64_t contiguous_ = 0;
  std::int64_t staged_ = 0;
  std::int64_t direct_ = 0;
};

/// Element offset -> byte offset for block placement.
std::int64_t block_off(const DatatypePtr& dt, std::int64_t elems) {
  return elems * dt->extent();
}

Primitive reduce_primitive(const DatatypePtr& dt) {
  const Signature& sig = dt->signature();
  if (sig.runs.size() != 1 || sig.overflow_hash != 0)
    throw std::invalid_argument(
        "reduce: datatype must be over a single primitive type");
  const Primitive p = sig.runs[0].prim;
  switch (p) {
    case Primitive::kInt32:
    case Primitive::kInt64:
    case Primitive::kFloat:
    case Primitive::kDouble:
      return p;
    default:
      throw std::invalid_argument("reduce: unsupported primitive");
  }
}

std::int64_t prim_bytes(Primitive p) {
  return (p == Primitive::kInt32 || p == Primitive::kFloat) ? 4 : 8;
}

template <typename T>
void apply_typed(ReduceOp op, T* acc, const T* in, std::int64_t n) {
  switch (op) {
    case ReduceOp::kSum:
      for (std::int64_t i = 0; i < n; ++i) acc[i] += in[i];
      break;
    case ReduceOp::kProd:
      for (std::int64_t i = 0; i < n; ++i) acc[i] *= in[i];
      break;
    case ReduceOp::kMax:
      for (std::int64_t i = 0; i < n; ++i) acc[i] = std::max(acc[i], in[i]);
      break;
    case ReduceOp::kMin:
      for (std::int64_t i = 0; i < n; ++i) acc[i] = std::min(acc[i], in[i]);
      break;
  }
}

}  // namespace

void apply_op(ReduceOp op, Primitive p, std::byte* acc, const std::byte* in,
              std::int64_t bytes) {
  switch (p) {
    case Primitive::kInt32:
      apply_typed(op, reinterpret_cast<std::int32_t*>(acc),
                  reinterpret_cast<const std::int32_t*>(in), bytes / 4);
      break;
    case Primitive::kInt64:
      apply_typed(op, reinterpret_cast<std::int64_t*>(acc),
                  reinterpret_cast<const std::int64_t*>(in), bytes / 8);
      break;
    case Primitive::kFloat:
      apply_typed(op, reinterpret_cast<float*>(acc),
                  reinterpret_cast<const float*>(in), bytes / 4);
      break;
    case Primitive::kDouble:
      apply_typed(op, reinterpret_cast<double*>(acc),
                  reinterpret_cast<const double*>(in), bytes / 8);
      break;
    default:
      throw std::invalid_argument("apply_op: unsupported primitive");
  }
}

int Collectives::next_tag() {
  epoch_ = (epoch_ + 1) & 0xfff;
  return kCollTagBase + epoch_;
}

void Collectives::bcast(void* buf, std::int64_t count, const DatatypePtr& dt,
                        int root) {
  const int size = comm_.size();
  const int rank = comm_.rank();
  const int tag = next_tag();
  if (size == 1 || count == 0 || dt->size() == 0) return;
  CollSpan span(comm_, "bcast", coll_flow(comm_.context(), epoch_),
                dt->shape_digest());
  const std::int64_t block = dt->size() * count;
  const bool contig = dt->is_contiguous(count);
  const int vrank = (rank - root + size) % size;
  // Binomial tree: receive from the parent, then forward to children.
  int mask = 1;
  while (mask < size) {
    if (vrank & mask) {
      const int parent = (vrank - mask + root) % size;
      comm_.recv(buf, count, dt, parent, tag);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (vrank + mask < size) {
      const int child = (vrank + mask + root) % size;
      comm_.send(buf, count, dt, child, tag);
      span.sent(block, contig, /*staged=*/false);
    }
    mask >>= 1;
  }
}

void Collectives::gather(const void* sendbuf, void* recvbuf,
                         std::int64_t count, const DatatypePtr& dt,
                         int root) {
  const int size = comm_.size();
  const int rank = comm_.rank();
  const int tag = next_tag();
  CollSpan span(comm_, "gather", coll_flow(comm_.context(), epoch_),
                dt->shape_digest());
  const std::int64_t block = dt->size() * count;
  const bool contig = dt->is_contiguous(count);
  if (rank != root) {
    comm_.send(sendbuf, count, dt, root, tag);
    span.sent(block, contig, /*staged=*/false);
    return;
  }
  auto* out = static_cast<std::byte*>(recvbuf);
  std::vector<Request> reqs;
  for (int r = 0; r < size; ++r) {
    if (r == rank) continue;
    reqs.push_back(
        comm_.irecv(out + block_off(dt, r * count), count, dt, r, tag));
  }
  // Own block: loop it through the transport so device buffers and
  // non-contiguous layouts are handled uniformly.
  reqs.push_back(comm_.isend(sendbuf, count, dt, rank, tag));
  span.sent(block, contig, /*staged=*/false);
  reqs.push_back(
      comm_.irecv(out + block_off(dt, rank * count), count, dt, rank, tag));
  comm_.waitall(reqs);
}

void Collectives::scatter(const void* sendbuf, void* recvbuf,
                          std::int64_t count, const DatatypePtr& dt,
                          int root) {
  const int size = comm_.size();
  const int rank = comm_.rank();
  const int tag = next_tag();
  CollSpan span(comm_, "scatter", coll_flow(comm_.context(), epoch_),
                dt->shape_digest());
  const std::int64_t block = dt->size() * count;
  const bool contig = dt->is_contiguous(count);
  if (rank != root) {
    comm_.recv(recvbuf, count, dt, root, tag);
    return;
  }
  const auto* in = static_cast<const std::byte*>(sendbuf);
  std::vector<Request> reqs;
  for (int r = 0; r < size; ++r) {
    if (r == rank) continue;
    reqs.push_back(
        comm_.isend(in + block_off(dt, r * count), count, dt, r, tag));
    span.sent(block, contig, /*staged=*/false);
  }
  reqs.push_back(
      comm_.isend(in + block_off(dt, rank * count), count, dt, rank, tag));
  span.sent(block, contig, /*staged=*/false);
  reqs.push_back(comm_.irecv(recvbuf, count, dt, rank, tag));
  comm_.waitall(reqs);
}

void Collectives::allgather(const void* sendbuf, void* recvbuf,
                            std::int64_t count, const DatatypePtr& dt) {
  const int size = comm_.size();
  const int rank = comm_.rank();
  const int tag = next_tag();
  CollSpan span(comm_, "allgather", coll_flow(comm_.context(), epoch_),
                dt->shape_digest());
  const std::int64_t block = dt->size() * count;
  const bool contig = dt->is_contiguous(count);
  auto* out = static_cast<std::byte*>(recvbuf);
  // Place the local contribution (via the transport: uniform handling).
  {
    Request s = comm_.isend(sendbuf, count, dt, rank, tag);
    span.sent(block, contig, /*staged=*/false);
    Request r =
        comm_.irecv(out + block_off(dt, rank * count), count, dt, rank, tag);
    comm_.wait(s);
    comm_.wait(r);
  }
  // Ring: in step s, forward the block received in step s-1.
  const int right = (rank + 1) % size;
  const int left = (rank - 1 + size) % size;
  for (int step = 0; step < size - 1; ++step) {
    const int send_block = (rank - step + size) % size;
    const int recv_block = (rank - step - 1 + size) % size;
    Request r = comm_.irecv(out + block_off(dt, recv_block * count), count,
                            dt, left, tag + 0x1000 + step);
    Request s = comm_.isend(out + block_off(dt, send_block * count), count,
                            dt, right, tag + 0x1000 + step);
    span.sent(block, contig, /*staged=*/false);
    comm_.wait(r);
    comm_.wait(s);
  }
}

void Collectives::alltoall(const void* sendbuf, void* recvbuf,
                           std::int64_t count, const DatatypePtr& dt) {
  const int size = comm_.size();
  const int rank = comm_.rank();
  const int tag = next_tag();
  CollSpan span(comm_, "alltoall", coll_flow(comm_.context(), epoch_),
                dt->shape_digest());
  const std::int64_t block = dt->size() * count;
  const bool contig = dt->is_contiguous(count);
  const auto* in = static_cast<const std::byte*>(sendbuf);
  auto* out = static_cast<std::byte*>(recvbuf);
  // Pairwise exchange by rotation; k = 0 is the local block.
  for (int k = 0; k < size; ++k) {
    const int to = (rank + k) % size;
    const int from = (rank - k + size) % size;
    Request r = comm_.irecv(out + block_off(dt, from * count), count, dt,
                            from, tag + k);
    Request s =
        comm_.isend(in + block_off(dt, to * count), count, dt, to, tag + k);
    span.sent(block, contig, /*staged=*/false);
    comm_.wait(r);
    comm_.wait(s);
  }
}

void Collectives::reduce(const void* sendbuf, void* recvbuf,
                         std::int64_t count, const DatatypePtr& dt,
                         ReduceOp op, int root) {
  const int size = comm_.size();
  const int rank = comm_.rank();
  const int tag = next_tag();
  CollSpan span(comm_, "reduce", coll_flow(comm_.context(), epoch_),
                dt->shape_digest());
  const Primitive prim = reduce_primitive(dt);
  const std::int64_t bytes = dt->size() * count;
  const bool contig = dt->is_contiguous(count);

  // Work on the packed representation in host memory: pack the local
  // contribution, combine children's packed streams, unpack at the root.
  // The pack and each receive overwrite their buffer in full before
  // anything reads it, so neither is zero-filled.
  const auto n = static_cast<std::size_t>(bytes);
  const auto acc = std::make_unique_for_overwrite<std::byte[]>(n);
  {
    const PackStats st = cpu_pack(dt, count, sendbuf, {acc.get(), n});
    comm_.process().pml().charge_cpu_pack(st);
  }
  auto packed = Datatype::contiguous(bytes, kByte());

  const int vrank = (rank - root + size) % size;
  const auto incoming = std::make_unique_for_overwrite<std::byte[]>(n);
  // Binomial reduce: absorb children, then forward to the parent.
  int mask = 1;
  while (mask < size) {
    if (vrank & mask) {
      const int parent = (vrank - mask + root) % size;
      comm_.send(acc.get(), 1, packed, parent, tag);
      // The payload crossed the wire as a host-staged packed stream, so
      // it counts as staged regardless of the user layout.
      span.sent(bytes, contig, /*staged=*/true);
      return;  // non-roots are done after forwarding
    }
    const int child_v = vrank + mask;
    if (child_v < size) {
      const int child = (child_v + root) % size;
      comm_.recv(incoming.get(), 1, packed, child, tag);
      apply_op(op, prim, acc.get(), incoming.get(), bytes);
      span.ops(bytes / prim_bytes(prim));
      comm_.process().clock().advance(
          vt::transfer_time(bytes, 4.0));  // ~4 GB/s host reduction
    }
    mask <<= 1;
  }
  // Root: scatter the combined packed stream into the recv layout.
  const PackStats st = cpu_unpack(dt, count, {acc.get(), n}, recvbuf);
  comm_.process().pml().charge_cpu_pack(st);
}

void Collectives::allreduce(const void* sendbuf, void* recvbuf,
                            std::int64_t count, const DatatypePtr& dt,
                            ReduceOp op) {
  // Bytes are accounted by the two sub-operations; the allreduce span
  // only marks the composite call's extent in the timeline. It draws its
  // own epoch so its flow is distinct from the nested reduce and bcast
  // chains (and from whatever collective ran before it).
  next_tag();
  CollSpan span(comm_, "allreduce", coll_flow(comm_.context(), epoch_),
                dt->shape_digest());
  reduce(sendbuf, recvbuf, count, dt, op, 0);
  bcast(recvbuf, count, dt, 0);
}

}  // namespace gpuddt::mpi

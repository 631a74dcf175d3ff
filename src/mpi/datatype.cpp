#include "mpi/datatype.h"

#include <algorithm>

#include "mpi/canonical.h"
#include <sstream>
#include <vector>
#include <stdexcept>

namespace gpuddt::mpi {

namespace {

constexpr std::size_t kMaxSignatureRuns = 64;

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v) {
  constexpr std::uint64_t kPrime = 1099511628211ULL;
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= kPrime;
  }
  return h;
}

constexpr std::uint64_t kFnvBasis = 14695981039346656037ULL;

void sig_append_run(Signature& sig, Primitive p, std::int64_t count) {
  if (count <= 0) return;
  sig.total_primitives += count;
  if (sig.overflow_hash != 0 || sig.runs.size() >= kMaxSignatureRuns) {
    if (!sig.runs.empty() && sig.runs.back().prim == p &&
        sig.overflow_hash == 0) {
      sig.runs.back().count += count;
      return;
    }
    if (sig.overflow_hash == 0) sig.overflow_hash = kFnvBasis;
    sig.overflow_hash = fnv1a(sig.overflow_hash, static_cast<std::uint64_t>(p));
    sig.overflow_hash =
        fnv1a(sig.overflow_hash, static_cast<std::uint64_t>(count));
    return;
  }
  if (!sig.runs.empty() && sig.runs.back().prim == p) {
    sig.runs.back().count += count;
    return;
  }
  sig.runs.push_back({p, count});
}

void sig_append(Signature& sig, const Signature& other,
                std::int64_t times = 1) {
  if (times <= 0) return;
  if (other.overflow_hash != 0) {
    // The child already overflowed: fold it in structurally.
    if (sig.overflow_hash == 0) sig.overflow_hash = kFnvBasis;
    for (const auto& r : other.runs) {
      sig.overflow_hash =
          fnv1a(sig.overflow_hash, static_cast<std::uint64_t>(r.prim));
      sig.overflow_hash =
          fnv1a(sig.overflow_hash, static_cast<std::uint64_t>(r.count));
    }
    sig.overflow_hash = fnv1a(sig.overflow_hash, other.overflow_hash);
    sig.overflow_hash = fnv1a(sig.overflow_hash,
                              static_cast<std::uint64_t>(times));
    sig.total_primitives += other.total_primitives * times;
    return;
  }
  if (other.runs.size() == 1) {
    sig_append_run(sig, other.runs[0].prim, other.runs[0].count * times);
    return;
  }
  for (std::int64_t t = 0; t < times; ++t) {
    for (const auto& r : other.runs) sig_append_run(sig, r.prim, r.count);
    if (sig.overflow_hash != 0 && other.runs.size() > 1) {
      // Remaining repetitions fold in one shot.
      if (t + 1 < times) {
        sig.overflow_hash =
            fnv1a(sig.overflow_hash, static_cast<std::uint64_t>(times - t - 1));
        for (const auto& r : other.runs) {
          sig.overflow_hash =
              fnv1a(sig.overflow_hash, static_cast<std::uint64_t>(r.prim));
          sig.overflow_hash =
              fnv1a(sig.overflow_hash, static_cast<std::uint64_t>(r.count));
        }
        sig.total_primitives += other.total_primitives * (times - t - 1);
      }
      return;
    }
  }
}

/// Append `src` into `dst`, shifting top-level displacements by `shift` and
/// merging a leading block with a trailing contiguous one.
void append_program(std::vector<Instr>& dst, std::span<const Instr> src,
                    std::int64_t shift) {
  int depth = 0;
  const std::size_t base_index = dst.size();
  for (const Instr& in : src) {
    Instr i = in;
    switch (i.op) {
      case Instr::Op::kLoop:
        if (depth == 0) i.disp += shift;
        ++depth;
        break;
      case Instr::Op::kEndLoop:
        --depth;
        break;
      case Instr::Op::kBlock:
        if (depth == 0) {
          i.disp += shift;
          if (dst.size() == base_index && !dst.empty() &&
              dst.back().op == Instr::Op::kBlock &&
              dst.back().disp + dst.back().len == i.disp) {
            // src's leading top-level block continues dst's trailing block.
            dst.back().len += i.len;
            continue;
          }
        }
        break;
    }
    dst.push_back(i);
  }
  // Re-link loop body_end indices for the copied region.
  std::vector<std::size_t> stack;
  for (std::size_t k = base_index; k < dst.size(); ++k) {
    if (dst[k].op == Instr::Op::kLoop) {
      stack.push_back(k);
    } else if (dst[k].op == Instr::Op::kEndLoop) {
      dst[stack.back()].body_end = static_cast<std::int32_t>(k);
      stack.pop_back();
    }
  }
}

/// Wrap `body` in Loop(count, step) at displacement `disp`, collapsing the
/// trivial shapes (count 1; strided single block whose stride equals its
/// length).
void emit_loop(std::vector<Instr>& dst, std::int64_t count, std::int64_t step,
               std::int64_t disp, std::span<const Instr> body) {
  if (count <= 0 || body.empty()) return;
  if (count == 1) {
    append_program(dst, body, disp);
    return;
  }
  if (body.size() == 1 && body[0].op == Instr::Op::kBlock &&
      step == body[0].len) {
    Instr merged = Instr::block(disp + body[0].disp, count * body[0].len);
    if (!dst.empty() && dst.back().op == Instr::Op::kBlock &&
        dst.back().disp + dst.back().len == merged.disp) {
      dst.back().len += merged.len;
    } else {
      dst.push_back(merged);
    }
    return;
  }
  const std::size_t loop_index = dst.size();
  dst.push_back(Instr::loop(count, step, disp));
  append_program(dst, body, 0);
  dst.push_back(Instr::end_loop());
  dst[loop_index].body_end = static_cast<std::int32_t>(dst.size() - 1);
}

struct WalkResult {
  std::int64_t min = 0;
  std::int64_t max = 0;
  std::int64_t size = 0;
  std::int64_t blocks = 0;
  bool any = false;
};

/// Static analysis of a program region [i0, i1): bounds, size, block count.
WalkResult walk(std::span<const Instr> prog, std::size_t i0, std::size_t i1) {
  WalkResult r;
  std::size_t i = i0;
  while (i < i1) {
    const Instr& in = prog[i];
    if (in.op == Instr::Op::kBlock) {
      if (!r.any) {
        r.min = in.disp;
        r.max = in.disp + in.len;
        r.any = true;
      } else {
        r.min = std::min(r.min, in.disp);
        r.max = std::max(r.max, in.disp + in.len);
      }
      r.size += in.len;
      r.blocks += 1;
      ++i;
    } else if (in.op == Instr::Op::kLoop) {
      const WalkResult b =
          walk(prog, i + 1, static_cast<std::size_t>(in.body_end));
      if (b.any && in.count > 0) {
        const std::int64_t iter_lo =
            in.step >= 0 ? 0 : (in.count - 1) * in.step;
        const std::int64_t iter_hi =
            in.step >= 0 ? (in.count - 1) * in.step : 0;
        const std::int64_t lo = in.disp + iter_lo + b.min;
        const std::int64_t hi = in.disp + iter_hi + b.max;
        if (!r.any) {
          r.min = lo;
          r.max = hi;
          r.any = true;
        } else {
          r.min = std::min(r.min, lo);
          r.max = std::max(r.max, hi);
        }
      }
      r.size += in.count * b.size;
      r.blocks += in.count * b.blocks;
      i = static_cast<std::size_t>(in.body_end) + 1;
    } else {
      ++i;  // stray kEndLoop (never happens for well-formed programs)
    }
  }
  return r;
}

std::uint64_t g_next_type_id = 1;

}  // namespace

std::uint64_t Signature::hash() const {
  std::uint64_t h = kFnvBasis;
  for (const auto& r : runs) {
    h = fnv1a(h, static_cast<std::uint64_t>(r.prim));
    h = fnv1a(h, static_cast<std::uint64_t>(r.count));
  }
  h = fnv1a(h, overflow_hash);
  return h;
}

const char* primitive_name(Primitive p) {
  switch (p) {
    case Primitive::kByte:
      return "byte";
    case Primitive::kChar:
      return "char";
    case Primitive::kInt32:
      return "int32";
    case Primitive::kInt64:
      return "int64";
    case Primitive::kFloat:
      return "float";
    case Primitive::kDouble:
      return "double";
  }
  return "?";
}

const char* combiner_name(Combiner c) {
  switch (c) {
    case Combiner::kNamed: return "named";
    case Combiner::kContiguous: return "contiguous";
    case Combiner::kVector: return "vector";
    case Combiner::kHvector: return "hvector";
    case Combiner::kIndexed: return "indexed";
    case Combiner::kHindexed: return "hindexed";
    case Combiner::kIndexedBlock: return "indexed_block";
    case Combiner::kStruct: return "struct";
    case Combiner::kSubarray: return "subarray";
    case Combiner::kDarray: return "darray";
    case Combiner::kResized: return "resized";
  }
  return "?";
}

namespace {
/// Assemble a TypeContents record (helper for the factory functions).
TypeContents make_contents(Combiner c, std::vector<std::int64_t> ints,
                           std::vector<std::int64_t> addrs,
                           std::vector<DatatypePtr> types) {
  TypeContents tc;
  tc.combiner = c;
  tc.integers = std::move(ints);
  tc.addresses = std::move(addrs);
  tc.types = std::move(types);
  return tc;
}
}  // namespace

DatatypePtr Datatype::finalize(std::vector<Instr> program, Signature sig,
                               std::int64_t lb, std::int64_t extent,
                               TypeContents contents) {
  auto dt = std::shared_ptr<Datatype>(new Datatype());
  dt->contents_ = std::move(contents);
  dt->program_ = canonicalize_program(program);
  const WalkResult w = walk(dt->program_, 0, dt->program_.size());
  dt->signature_ = std::move(sig);
  dt->size_ = w.size;
  dt->true_lb_ = w.any ? w.min : 0;
  dt->true_ub_ = w.any ? w.max : 0;
  dt->blocks_per_element_ = w.blocks;
  if (extent >= 0) {
    dt->lb_ = lb;
    dt->extent_ = extent;
  } else {
    dt->lb_ = dt->true_lb_;
    dt->extent_ = dt->true_ub_ - dt->true_lb_;
  }
  dt->dense_ = dt->program_.size() == 1 &&
               dt->program_[0].op == Instr::Op::kBlock &&
               dt->program_[0].disp == 0 && dt->lb_ == 0 &&
               dt->extent_ == dt->size_;
  dt->type_id_ = g_next_type_id++;
  dt->shape_digest_ = ::gpuddt::mpi::shape_digest(dt->program_, dt->extent_);
  return dt;
}

DatatypePtr Datatype::primitive(Primitive p) {
  std::vector<Instr> prog{Instr::block(0, primitive_size(p))};
  Signature sig;
  sig_append_run(sig, p, 1);
  return finalize(std::move(prog), std::move(sig), 0, primitive_size(p),
                  make_contents(Combiner::kNamed,
                                {static_cast<std::int64_t>(p)}, {}, {}));
}

DatatypePtr Datatype::contiguous(std::int64_t count, const DatatypePtr& t) {
  if (count < 0) throw std::invalid_argument("contiguous: negative count");
  std::vector<Instr> prog;
  emit_loop(prog, count, t->extent(), 0, t->program());
  Signature sig;
  sig_append(sig, t->signature(), count);
  return finalize(std::move(prog), std::move(sig), 0,
                  count == 0 ? 0 : count * t->extent(),
                  make_contents(Combiner::kContiguous, {count}, {}, {t}));
}

DatatypePtr Datatype::vector(std::int64_t count, std::int64_t blocklen,
                             std::int64_t stride, const DatatypePtr& t) {
  auto dt = hvector(count, blocklen, stride * t->extent(), t);
  const_cast<Datatype*>(dt.get())->contents_ = make_contents(
      Combiner::kVector, {count, blocklen, stride}, {}, {t});
  return dt;
}

DatatypePtr Datatype::hvector(std::int64_t count, std::int64_t blocklen,
                              std::int64_t stride_bytes, const DatatypePtr& t) {
  if (count < 0 || blocklen < 0)
    throw std::invalid_argument("hvector: negative count/blocklen");
  std::vector<Instr> body;
  emit_loop(body, blocklen, t->extent(), 0, t->program());
  std::vector<Instr> prog;
  emit_loop(prog, count, stride_bytes, 0, body);
  Signature sig;
  sig_append(sig, t->signature(), count * blocklen);
  return finalize(std::move(prog), std::move(sig), 0, -1,
                  make_contents(Combiner::kHvector, {count, blocklen},
                                {stride_bytes}, {t}));
}

DatatypePtr Datatype::indexed(std::span<const std::int64_t> blocklens,
                              std::span<const std::int64_t> displs,
                              const DatatypePtr& t) {
  std::vector<std::int64_t> bytes(displs.size());
  for (std::size_t i = 0; i < displs.size(); ++i)
    bytes[i] = displs[i] * t->extent();
  auto dt = hindexed(blocklens, bytes, t);
  std::vector<std::int64_t> ints(1 + blocklens.size() + displs.size());
  ints[0] = static_cast<std::int64_t>(blocklens.size());
  std::copy(blocklens.begin(), blocklens.end(), ints.begin() + 1);
  std::copy(displs.begin(), displs.end(),
            ints.begin() + 1 + static_cast<std::ptrdiff_t>(blocklens.size()));
  const_cast<Datatype*>(dt.get())->contents_ =
      make_contents(Combiner::kIndexed, std::move(ints), {}, {t});
  return dt;
}

DatatypePtr Datatype::hindexed(std::span<const std::int64_t> blocklens,
                               std::span<const std::int64_t> displs_bytes,
                               const DatatypePtr& t) {
  if (blocklens.size() != displs_bytes.size())
    throw std::invalid_argument("hindexed: mismatched argument lengths");
  std::vector<Instr> prog;
  Signature sig;
  std::int64_t total_blocks = 0;
  for (std::size_t i = 0; i < blocklens.size(); ++i) {
    if (blocklens[i] < 0)
      throw std::invalid_argument("hindexed: negative blocklen");
    std::vector<Instr> body;
    emit_loop(body, blocklens[i], t->extent(), 0, t->program());
    append_program(prog, body, displs_bytes[i]);
    total_blocks += blocklens[i];
  }
  sig_append(sig, t->signature(), total_blocks);
  return finalize(
      std::move(prog), std::move(sig), 0, -1,
      make_contents(Combiner::kHindexed,
                    [&] {
                      std::vector<std::int64_t> ints;
                      ints.push_back(
                          static_cast<std::int64_t>(blocklens.size()));
                      ints.insert(ints.end(), blocklens.begin(),
                                  blocklens.end());
                      return ints;
                    }(),
                    std::vector<std::int64_t>(displs_bytes.begin(),
                                              displs_bytes.end()),
                    {t}));
}

DatatypePtr Datatype::indexed_block(std::int64_t blocklen,
                                    std::span<const std::int64_t> displs,
                                    const DatatypePtr& t) {
  std::vector<std::int64_t> lens(displs.size(), blocklen);
  auto dt = indexed(lens, displs, t);
  std::vector<std::int64_t> ints;
  ints.push_back(static_cast<std::int64_t>(displs.size()));
  ints.push_back(blocklen);
  ints.insert(ints.end(), displs.begin(), displs.end());
  const_cast<Datatype*>(dt.get())->contents_ =
      make_contents(Combiner::kIndexedBlock, std::move(ints), {}, {t});
  return dt;
}

DatatypePtr Datatype::struct_type(std::span<const std::int64_t> blocklens,
                                  std::span<const std::int64_t> displs_bytes,
                                  std::span<const DatatypePtr> types) {
  if (blocklens.size() != displs_bytes.size() ||
      blocklens.size() != types.size())
    throw std::invalid_argument("struct_type: mismatched argument lengths");
  std::vector<Instr> prog;
  Signature sig;
  for (std::size_t i = 0; i < blocklens.size(); ++i) {
    if (blocklens[i] < 0)
      throw std::invalid_argument("struct_type: negative blocklen");
    std::vector<Instr> body;
    emit_loop(body, blocklens[i], types[i]->extent(), 0, types[i]->program());
    append_program(prog, body, displs_bytes[i]);
    sig_append(sig, types[i]->signature(), blocklens[i]);
  }
  return finalize(
      std::move(prog), std::move(sig), 0, -1,
      make_contents(Combiner::kStruct,
                    [&] {
                      std::vector<std::int64_t> ints;
                      ints.push_back(
                          static_cast<std::int64_t>(blocklens.size()));
                      ints.insert(ints.end(), blocklens.begin(),
                                  blocklens.end());
                      return ints;
                    }(),
                    std::vector<std::int64_t>(displs_bytes.begin(),
                                              displs_bytes.end()),
                    std::vector<DatatypePtr>(types.begin(), types.end())));
}

DatatypePtr Datatype::subarray(std::span<const std::int64_t> sizes,
                               std::span<const std::int64_t> subsizes,
                               std::span<const std::int64_t> starts,
                               const DatatypePtr& t, Order order) {
  const std::size_t ndims = sizes.size();
  if (subsizes.size() != ndims || starts.size() != ndims || ndims == 0)
    throw std::invalid_argument("subarray: mismatched dimensions");
  for (std::size_t d = 0; d < ndims; ++d) {
    if (subsizes[d] < 0 || starts[d] < 0 ||
        starts[d] + subsizes[d] > sizes[d])
      throw std::invalid_argument("subarray: sub-block out of bounds");
  }
  // Element strides per dimension.
  std::vector<std::int64_t> stride(ndims);
  std::vector<std::size_t> dim_order(ndims);  // fastest-varying first
  if (order == Order::kFortran) {
    stride[0] = 1;
    for (std::size_t d = 1; d < ndims; ++d)
      stride[d] = stride[d - 1] * sizes[d - 1];
    for (std::size_t d = 0; d < ndims; ++d) dim_order[d] = d;
  } else {
    stride[ndims - 1] = 1;
    for (std::size_t d = ndims - 1; d-- > 0;)
      stride[d] = stride[d + 1] * sizes[d + 1];
    for (std::size_t d = 0; d < ndims; ++d) dim_order[d] = ndims - 1 - d;
  }
  const std::int64_t esz = t->extent();
  // Innermost contiguous run.
  std::vector<Instr> prog;
  emit_loop(prog, subsizes[dim_order[0]], esz, 0, t->program());
  for (std::size_t k = 1; k < ndims; ++k) {
    const std::size_t d = dim_order[k];
    std::vector<Instr> wrapped;
    emit_loop(wrapped, subsizes[d], stride[d] * esz, 0, prog);
    prog = std::move(wrapped);
  }
  std::int64_t disp0 = 0;
  std::int64_t full = 1;
  for (std::size_t d = 0; d < ndims; ++d) {
    disp0 += starts[d] * stride[d] * esz;
    full *= sizes[d];
  }
  std::vector<Instr> shifted;
  append_program(shifted, prog, disp0);
  Signature sig;
  std::int64_t nsub = 1;
  for (std::size_t d = 0; d < ndims; ++d) nsub *= subsizes[d];
  sig_append(sig, t->signature(), nsub);
  std::vector<std::int64_t> ints;
  ints.push_back(static_cast<std::int64_t>(ndims));
  ints.insert(ints.end(), sizes.begin(), sizes.end());
  ints.insert(ints.end(), subsizes.begin(), subsizes.end());
  ints.insert(ints.end(), starts.begin(), starts.end());
  ints.push_back(order == Order::kC ? 0 : 1);
  return finalize(std::move(shifted), std::move(sig), 0, full * esz,
                  make_contents(Combiner::kSubarray, std::move(ints), {},
                                {t}));
}

namespace {

/// One darray dimension: restrict `p` (the composite of the
/// faster-varying dimensions, one "element" per global index) to this
/// process's share of `gsize` elements, producing a type whose extent is
/// the full dimension (gsize * p->extent()).
DatatypePtr darray_dim(const DatatypePtr& p, std::int64_t gsize,
                       Datatype::Distrib distrib, std::int64_t darg,
                       std::int64_t psize, std::int64_t coord) {
  const std::int64_t ext = p->extent();
  const std::int64_t full_extent = gsize * ext;
  switch (distrib) {
    case Datatype::Distrib::kNone: {
      if (psize != 1)
        throw std::invalid_argument("darray: kNone requires psize == 1");
      return Datatype::resized(Datatype::contiguous(gsize, p), 0,
                               full_extent);
    }
    case Datatype::Distrib::kBlock: {
      std::int64_t b = darg;
      if (b == Datatype::kDefaultDarg) b = (gsize + psize - 1) / psize;
      if (b * psize < gsize)
        throw std::invalid_argument("darray: block size too small");
      const std::int64_t mysize =
          std::clamp<std::int64_t>(gsize - b * coord, 0, b);
      const std::int64_t lens[] = {mysize};
      const std::int64_t displs[] = {coord * b * ext};
      const DatatypePtr types[] = {p};
      return Datatype::resized(
          Datatype::struct_type(lens, displs, types), 0, full_extent);
    }
    case Datatype::Distrib::kCyclic: {
      const std::int64_t b = darg == Datatype::kDefaultDarg ? 1 : darg;
      if (b <= 0) throw std::invalid_argument("darray: bad cyclic block");
      const std::int64_t nblocks = (gsize + b - 1) / b;
      const std::int64_t count =
          coord < nblocks ? (nblocks - coord - 1) / psize + 1 : 0;
      if (count == 0) {
        return Datatype::resized(Datatype::contiguous(0, p), 0, full_extent);
      }
      const std::int64_t my_last = coord + (count - 1) * psize;
      const bool tail_partial =
          my_last == nblocks - 1 && gsize % b != 0;
      const std::int64_t n_full = tail_partial ? count - 1 : count;
      const DatatypePtr main =
          Datatype::hvector(n_full, b, psize * b * ext, p);
      DatatypePtr body;
      if (n_full > 0 && tail_partial) {
        const std::int64_t tail_len = gsize - my_last * b;
        const std::int64_t lens[] = {1, tail_len};
        const std::int64_t displs[] = {coord * b * ext, my_last * b * ext};
        const DatatypePtr types[] = {main, p};
        body = Datatype::struct_type(lens, displs, types);
      } else if (n_full > 0) {
        const std::int64_t lens[] = {1};
        const std::int64_t displs[] = {coord * b * ext};
        const DatatypePtr types[] = {main};
        body = Datatype::struct_type(lens, displs, types);
      } else {
        const std::int64_t tail_len = gsize - my_last * b;
        const std::int64_t lens[] = {tail_len};
        const std::int64_t displs[] = {my_last * b * ext};
        const DatatypePtr types[] = {p};
        body = Datatype::struct_type(lens, displs, types);
      }
      return Datatype::resized(body, 0, full_extent);
    }
  }
  throw std::invalid_argument("darray: unknown distribution");
}

}  // namespace

DatatypePtr Datatype::darray(int world_size, int rank,
                             std::span<const std::int64_t> gsizes,
                             std::span<const Distrib> distribs,
                             std::span<const std::int64_t> dargs,
                             std::span<const std::int64_t> psizes,
                             const DatatypePtr& t, Order order) {
  const std::size_t ndims = gsizes.size();
  if (distribs.size() != ndims || dargs.size() != ndims ||
      psizes.size() != ndims || ndims == 0)
    throw std::invalid_argument("darray: mismatched dimensions");
  std::int64_t grid = 1;
  for (std::size_t d = 0; d < ndims; ++d) {
    if (psizes[d] <= 0 || gsizes[d] < 0)
      throw std::invalid_argument("darray: bad sizes");
    grid *= psizes[d];
  }
  if (grid != world_size)
    throw std::invalid_argument("darray: process grid != world size");
  if (rank < 0 || rank >= world_size)
    throw std::invalid_argument("darray: bad rank");

  // Process-grid coordinates: C (row-major) rank ordering, per MPI.
  std::vector<std::int64_t> coord(ndims);
  {
    int r = rank;
    for (std::size_t d = ndims; d-- > 0;) {
      coord[d] = r % psizes[d];
      r = static_cast<int>(r / psizes[d]);
    }
  }

  // Compose from the fastest-varying dimension outward.
  DatatypePtr composite = t;
  if (order == Order::kFortran) {
    for (std::size_t d = 0; d < ndims; ++d)
      composite = darray_dim(composite, gsizes[d], distribs[d], dargs[d],
                             psizes[d], coord[d]);
  } else {
    for (std::size_t d = ndims; d-- > 0;)
      composite = darray_dim(composite, gsizes[d], distribs[d], dargs[d],
                             psizes[d], coord[d]);
  }
  std::vector<std::int64_t> ints;
  ints.push_back(world_size);
  ints.push_back(rank);
  ints.push_back(static_cast<std::int64_t>(ndims));
  ints.insert(ints.end(), gsizes.begin(), gsizes.end());
  for (auto d : distribs) ints.push_back(static_cast<std::int64_t>(d));
  ints.insert(ints.end(), dargs.begin(), dargs.end());
  ints.insert(ints.end(), psizes.begin(), psizes.end());
  ints.push_back(order == Order::kC ? 0 : 1);
  const_cast<Datatype*>(composite.get())->contents_ =
      make_contents(Combiner::kDarray, std::move(ints), {}, {t});
  return composite;
}

DatatypePtr Datatype::resized(const DatatypePtr& t, std::int64_t lb,
                              std::int64_t extent) {
  Signature sig = t->signature();
  std::vector<Instr> prog = t->program();
  return finalize(std::move(prog), std::move(sig), lb, extent,
                  make_contents(Combiner::kResized, {}, {lb, extent}, {t}));
}

bool Datatype::is_contiguous(std::int64_t count) const {
  if (size_ == 0 || count == 0) return true;
  if (size_ != true_ub_ - true_lb_) return false;
  if (blocks_per_element_ != 1) return false;
  return count == 1 || extent_ == size_;
}

std::optional<RegularPattern> Datatype::regular_pattern(
    std::int64_t count) const {
  // The program is canonical: a uniform strided pattern hiding inside an
  // indexed/struct construction re-rolls into the 3-instr loop{block}
  // shape and takes the vector fast path too.
  const std::vector<Instr>& prog = program_;
  if (count <= 0 || prog.empty()) return std::nullopt;
  if (prog.size() == 1 && prog[0].op == Instr::Op::kBlock) {
    const Instr& b = prog[0];
    if (count == 1 || extent_ == b.len) {
      return RegularPattern{b.disp, count * b.len, count * b.len, 1};
    }
    return RegularPattern{b.disp, b.len, extent_, count};
  }
  if (prog.size() == 3 && prog[0].op == Instr::Op::kLoop &&
      prog[1].op == Instr::Op::kBlock &&
      prog[2].op == Instr::Op::kEndLoop) {
    const Instr& lp = prog[0];
    const Instr& b = prog[1];
    // Uniform across element boundaries only if the next element's first
    // block continues the same arithmetic progression.
    if (count == 1 || extent_ == lp.count * lp.step) {
      return RegularPattern{lp.disp + b.disp, b.len, lp.step,
                            lp.count * count};
    }
  }
  return std::nullopt;
}

std::string Datatype::describe() const {
  std::ostringstream os;
  os << "ddt{size=" << size_ << ", extent=" << extent_ << ", lb=" << lb_
     << ", blocks/elem=" << blocks_per_element_ << ", prog=[";
  for (std::size_t i = 0; i < program_.size(); ++i) {
    const Instr& in = program_[i];
    if (i) os << " ";
    switch (in.op) {
      case Instr::Op::kLoop:
        os << "loop(n=" << in.count << ",step=" << in.step
           << ",disp=" << in.disp << "){";
        break;
      case Instr::Op::kEndLoop:
        os << "}";
        break;
      case Instr::Op::kBlock:
        os << "blk(" << in.disp << "," << in.len << ")";
        break;
    }
  }
  os << "]}";
  return os.str();
}

std::string Datatype::describe_tree() const {
  const TypeContents& tc = contents_;
  std::ostringstream os;
  switch (tc.combiner) {
    case Combiner::kNamed:
      return primitive_name(static_cast<Primitive>(tc.integers.at(0)));
    case Combiner::kContiguous:
      os << "contiguous(" << tc.integers.at(0) << ", "
         << tc.types.at(0)->describe_tree() << ")";
      break;
    case Combiner::kVector:
      os << "vector(" << tc.integers.at(0) << ", " << tc.integers.at(1)
         << ", " << tc.integers.at(2) << ", "
         << tc.types.at(0)->describe_tree() << ")";
      break;
    case Combiner::kHvector:
      os << "hvector(" << tc.integers.at(0) << ", " << tc.integers.at(1)
         << ", " << tc.addresses.at(0) << "B, "
         << tc.types.at(0)->describe_tree() << ")";
      break;
    case Combiner::kIndexed:
    case Combiner::kHindexed:
      os << combiner_name(tc.combiner) << "(" << tc.integers.at(0)
         << " blocks, " << tc.types.at(0)->describe_tree() << ")";
      break;
    case Combiner::kIndexedBlock:
      os << "indexed_block(" << tc.integers.at(0) << " x "
         << tc.integers.at(1) << ", " << tc.types.at(0)->describe_tree()
         << ")";
      break;
    case Combiner::kStruct: {
      os << "struct(" << tc.integers.at(0) << " fields:";
      for (std::size_t i = 0; i < tc.types.size(); ++i) {
        os << (i ? ", " : " ") << tc.types[i]->describe_tree();
      }
      os << ")";
      break;
    }
    case Combiner::kSubarray:
      os << "subarray(" << tc.integers.at(0) << "D, "
         << tc.types.at(0)->describe_tree() << ")";
      break;
    case Combiner::kDarray:
      os << "darray(rank " << tc.integers.at(1) << "/" << tc.integers.at(0)
         << ", " << tc.integers.at(2) << "D, "
         << tc.types.at(0)->describe_tree() << ")";
      break;
    case Combiner::kResized:
      os << "resized(lb=" << tc.addresses.at(0)
         << ", extent=" << tc.addresses.at(1) << ", "
         << tc.types.at(0)->describe_tree() << ")";
      break;
  }
  return os.str();
}

namespace {
const DatatypePtr& singleton(Primitive p) {
  static const std::array<DatatypePtr, 6> kTypes = {
      Datatype::primitive(Primitive::kByte),
      Datatype::primitive(Primitive::kChar),
      Datatype::primitive(Primitive::kInt32),
      Datatype::primitive(Primitive::kInt64),
      Datatype::primitive(Primitive::kFloat),
      Datatype::primitive(Primitive::kDouble),
  };
  return kTypes[static_cast<std::size_t>(p)];
}
}  // namespace

const DatatypePtr& kByte() { return singleton(Primitive::kByte); }
const DatatypePtr& kChar() { return singleton(Primitive::kChar); }
const DatatypePtr& kInt32() { return singleton(Primitive::kInt32); }
const DatatypePtr& kInt64() { return singleton(Primitive::kInt64); }
const DatatypePtr& kFloat() { return singleton(Primitive::kFloat); }
const DatatypePtr& kDouble() { return singleton(Primitive::kDouble); }

}  // namespace gpuddt::mpi

// MPI derived datatypes (DDTs).
//
// A Datatype is an immutable description of a (possibly non-contiguous)
// memory layout, built with the MPI constructors the paper exercises:
// contiguous, vector/hvector, indexed/hindexed/indexed_block, struct,
// subarray and resized. Internally a committed type is compiled into a
// compact loop/block *program* - the equivalent of Open MPI's stack-based
// representation - and stored in canonical form (mpi/canonical.h). The
// CPU pack engine (cursor.h) and the GPU datatype engine (src/core) both
// traverse that one program.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace gpuddt::mpi {

enum class Primitive : std::uint8_t {
  kByte,
  kChar,
  kInt32,
  kInt64,
  kFloat,
  kDouble,
};

constexpr std::int64_t primitive_size(Primitive p) {
  switch (p) {
    case Primitive::kByte:
    case Primitive::kChar:
      return 1;
    case Primitive::kInt32:
    case Primitive::kFloat:
      return 4;
    case Primitive::kInt64:
    case Primitive::kDouble:
      return 8;
  }
  return 1;
}

const char* primitive_name(Primitive p);

/// One instruction of a compiled datatype program. A program describes one
/// element of the type; multi-`count` operations wrap it in an implicit
/// outer loop advancing by the type's extent.
struct Instr {
  enum class Op : std::uint8_t { kLoop, kEndLoop, kBlock };

  Op op = Op::kBlock;
  // kLoop fields: execute body `count` times; iteration i's frame base is
  // parent_base + disp + i * step. `body_end` indexes the matching
  // kEndLoop within the program.
  std::int64_t count = 0;
  std::int64_t step = 0;
  std::int32_t body_end = 0;
  // kBlock fields (disp also used by kLoop as the frame displacement):
  // `len` contiguous bytes at frame_base + disp.
  std::int64_t disp = 0;
  std::int64_t len = 0;

  static Instr block(std::int64_t disp, std::int64_t len) {
    Instr i;
    i.op = Op::kBlock;
    i.disp = disp;
    i.len = len;
    return i;
  }
  static Instr loop(std::int64_t count, std::int64_t step,
                    std::int64_t disp = 0) {
    Instr i;
    i.op = Op::kLoop;
    i.count = count;
    i.step = step;
    i.disp = disp;
    return i;
  }
  static Instr end_loop() {
    Instr i;
    i.op = Op::kEndLoop;
    return i;
  }

  bool operator==(const Instr&) const = default;
};

/// Run-length-encoded primitive sequence: the datatype *signature*. Two
/// types with equal signatures may be used as matching send/recv types
/// (e.g. a vector of N doubles matches a contiguous block of N doubles).
struct Signature {
  struct Run {
    Primitive prim;
    std::int64_t count;
    bool operator==(const Run&) const = default;
  };
  /// Runs, possibly truncated; when truncated `overflow_hash` folds in the
  /// remainder so equality stays sound (hash-equality, collision-unlikely).
  std::vector<Run> runs;
  std::uint64_t overflow_hash = 0;
  std::int64_t total_primitives = 0;

  bool operator==(const Signature&) const = default;
  std::uint64_t hash() const;
};

class Datatype;
using DatatypePtr = std::shared_ptr<const Datatype>;

/// Constructor kinds, as MPI_Type_get_envelope reports them.
enum class Combiner : std::uint8_t {
  kNamed,  // a predefined primitive
  kContiguous,
  kVector,
  kHvector,
  kIndexed,
  kHindexed,
  kIndexedBlock,
  kStruct,
  kSubarray,
  kDarray,
  kResized,
};

const char* combiner_name(Combiner c);

/// The reconstruction recipe of a derived type (MPI_Type_get_contents):
/// integer arguments (counts, blocklengths, sizes...), address arguments
/// (byte displacements, strides), and the input datatypes, in the same
/// order the constructor took them.
struct TypeContents {
  Combiner combiner = Combiner::kNamed;
  std::vector<std::int64_t> integers;
  std::vector<std::int64_t> addresses;
  std::vector<DatatypePtr> types;
};

/// Compact description of a strided layout, used to route onto the GPU
/// vector fast path: `count` blocks of `blocklen` bytes, consecutive block
/// starts `stride` bytes apart, first block at `first_disp`.
struct RegularPattern {
  std::int64_t first_disp = 0;
  std::int64_t blocklen = 0;
  std::int64_t stride = 0;
  std::int64_t count = 0;
};

class Datatype : public std::enable_shared_from_this<Datatype> {
 public:
  // --- Constructors (factories) ------------------------------------------
  static DatatypePtr primitive(Primitive p);
  static DatatypePtr contiguous(std::int64_t count, const DatatypePtr& t);
  /// stride counted in elements of `t` (MPI_Type_vector).
  static DatatypePtr vector(std::int64_t count, std::int64_t blocklen,
                            std::int64_t stride, const DatatypePtr& t);
  /// stride counted in bytes (MPI_Type_create_hvector).
  static DatatypePtr hvector(std::int64_t count, std::int64_t blocklen,
                             std::int64_t stride_bytes, const DatatypePtr& t);
  /// displacements counted in elements of `t` (MPI_Type_indexed).
  static DatatypePtr indexed(std::span<const std::int64_t> blocklens,
                             std::span<const std::int64_t> displs,
                             const DatatypePtr& t);
  /// displacements counted in bytes (MPI_Type_create_hindexed).
  static DatatypePtr hindexed(std::span<const std::int64_t> blocklens,
                              std::span<const std::int64_t> displs_bytes,
                              const DatatypePtr& t);
  /// equal blocklength variant (MPI_Type_create_indexed_block).
  static DatatypePtr indexed_block(std::int64_t blocklen,
                                   std::span<const std::int64_t> displs,
                                   const DatatypePtr& t);
  /// location-blocklength-datatype tuples (MPI_Type_create_struct).
  static DatatypePtr struct_type(std::span<const std::int64_t> blocklens,
                                 std::span<const std::int64_t> displs_bytes,
                                 std::span<const DatatypePtr> types);
  enum class Order { kC, kFortran };
  /// n-dimensional sub-array (MPI_Type_create_subarray).
  static DatatypePtr subarray(std::span<const std::int64_t> sizes,
                              std::span<const std::int64_t> subsizes,
                              std::span<const std::int64_t> starts,
                              const DatatypePtr& t, Order order = Order::kC);

  /// Distribution kinds for darray (MPI_Type_create_darray).
  enum class Distrib { kBlock, kCyclic, kNone };
  /// The distributed-array type of HPF / ScaLAPACK: the portion of an
  /// n-dimensional global array owned by process `rank` of a
  /// `psizes`-shaped process grid under per-dimension block / cyclic(b) /
  /// replicated distributions. This is the layout behind ScaLAPACK's
  /// block-cyclic matrices, the paper's motivating library. `dargs[d]`
  /// is the block size for kCyclic (or kDefaultDarg for kBlock's
  /// ceiling-division default; ignored for kNone).
  static constexpr std::int64_t kDefaultDarg = -1;
  static DatatypePtr darray(int world_size, int rank,
                            std::span<const std::int64_t> gsizes,
                            std::span<const Distrib> distribs,
                            std::span<const std::int64_t> dargs,
                            std::span<const std::int64_t> psizes,
                            const DatatypePtr& t, Order order = Order::kC);
  static DatatypePtr resized(const DatatypePtr& t, std::int64_t lb,
                             std::int64_t extent);

  // --- Queries -------------------------------------------------------------
  /// Bytes of actual data per element.
  std::int64_t size() const { return size_; }
  /// Distance between consecutive elements.
  std::int64_t extent() const { return extent_; }
  std::int64_t lb() const { return lb_; }
  std::int64_t ub() const { return lb_ + extent_; }
  /// Bounds of the data actually touched (ignoring resized padding).
  std::int64_t true_lb() const { return true_lb_; }
  std::int64_t true_extent() const { return true_ub_ - true_lb_; }

  /// True when one element is a single dense block starting at offset 0
  /// whose length equals the extent.
  bool is_dense() const { return dense_; }
  /// True when `count` elements of this type form one contiguous region.
  bool is_contiguous(std::int64_t count) const;

  /// Number of contiguous blocks per element (what a pack must gather).
  std::int64_t blocks_per_element() const { return blocks_per_element_; }

  /// The type's one program, in canonical form (mpi/canonical.h):
  /// structurally equal types - however they were constructed - share
  /// it, so every walker visits them identically and equal shapes
  /// compile to identical DEV unit lists.
  const std::vector<Instr>& program() const { return program_; }
  const Signature& signature() const { return signature_; }

  /// Stable 64-bit digest of program() + extent: the shape key the DEV
  /// cache is keyed on. Equal for structurally equal types.
  std::uint64_t shape_digest() const { return shape_digest_; }

  /// Unique id of this committed type instance (shape-dedup accounting;
  /// the DEV cache itself keys on shape_digest()).
  std::uint64_t type_id() const { return type_id_; }

  /// How this type was constructed (MPI_Type_get_envelope /
  /// MPI_Type_get_contents).
  const TypeContents& contents() const { return contents_; }
  Combiner combiner() const { return contents_.combiner; }

  /// If `count` elements form a uniform strided pattern, describe it (the
  /// GPU vector fast path); nullopt otherwise.
  std::optional<RegularPattern> regular_pattern(std::int64_t count) const;

  std::string describe() const;

  /// Human-readable constructor tree built from contents(), e.g.
  /// "vector(4, 2, 5, double)" - what a datatype debugger would print.
  std::string describe_tree() const;

 private:
  Datatype() = default;
  static DatatypePtr finalize(std::vector<Instr> program, Signature sig,
                              std::int64_t lb, std::int64_t extent,
                              TypeContents contents = {});

  std::vector<Instr> program_;
  Signature signature_;
  std::int64_t size_ = 0;
  std::int64_t extent_ = 0;
  std::int64_t lb_ = 0;
  std::int64_t true_lb_ = 0;
  std::int64_t true_ub_ = 0;
  std::int64_t blocks_per_element_ = 0;
  bool dense_ = false;
  std::uint64_t type_id_ = 0;
  std::uint64_t shape_digest_ = 0;
  TypeContents contents_;
};

// Convenience singletons for the common primitives.
const DatatypePtr& kByte();
const DatatypePtr& kChar();
const DatatypePtr& kInt32();
const DatatypePtr& kInt64();
const DatatypePtr& kFloat();
const DatatypePtr& kDouble();

}  // namespace gpuddt::mpi

// Canonical datatype form - the TEMPI-style normalization pass.
//
// Two datatypes built through different constructor paths (a contiguous
// run of doubles vs. a blocklen-N vector with unit stride vs. an hvector
// whose byte stride equals its block length...) describe the same memory
// shape, yet each constructor composes its own loop/block program.
// canonicalize_program() reduces such a composed program to a canonical
// representation, and Datatype::finalize stores only that result as the
// type's program():
//
//   * empty loops and zero-length blocks are dropped,
//   * count-1 loops are inlined into their parent (nested
//     contiguous/vector chain collapse),
//   * a loop over a single block whose step equals the block length is
//     folded into one contiguous block (hvector with unit stride),
//   * adjacent sibling blocks that continue each other are merged,
//   * perfectly nested loops (outer step == inner count * inner step)
//     are fused into one loop,
//   * maximal runs of >= 2 structurally identical siblings at a constant
//     displacement shift are re-rolled into a loop - this is what
//     surfaces the blocklen/stride/count RegularPattern hiding inside
//     kIndexed / kIndexedBlock / kStruct types, and
//   * every loop hoists its body's leading displacement into its own.
//
// All rules preserve the byte-visit order of the traversal exactly, so
// the canonical program packs identically to the composed one; rules that
// merge blocks only merge blocks that were already contiguous in the
// emitted order (the verifier's tree_equiv obligation proves the stored
// program against the constructor tree). shape_digest() then hashes the canonical program plus
// the extent (which governs multi-element placement) into a stable
// 64-bit key: structurally equal types collide by construction, and the
// DEV cache (core/dev_cache.h) keys on this digest instead of the
// per-instance type_id.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mpi/datatype.h"

namespace gpuddt::mpi {

/// Reduce a compiled loop/block program to canonical form. The result
/// emits exactly the same byte sequence in the same order.
std::vector<Instr> canonicalize_program(std::span<const Instr> program);

/// Structural sanity of a loop/block program: every kLoop's body_end
/// links the matching kEndLoop, nesting balances, and no count/length
/// is negative. The static verifier (src/verify/) checks this before
/// interpreting any program; malformed programs fail the
/// program_well_formed obligation instead of crashing the walkers.
bool program_well_formed(std::span<const Instr> program);

/// Stable 64-bit digest of a canonical program plus the type extent
/// (FNV-1a over the instruction stream). Equal shapes - same canonical
/// program, same extent - produce equal digests regardless of how the
/// type was constructed.
std::uint64_t shape_digest(std::span<const Instr> canonical,
                           std::int64_t extent);

}  // namespace gpuddt::mpi

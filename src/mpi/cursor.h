// Datatype traversal.
//
// BlockCursor walks the loop/block program (Datatype::program(), the
// type's one canonical program) of `count` elements of a datatype and
// yields the contiguous blocks in layout order. It supports
// *partial* consumption (stop mid-block after an exact byte budget), which
// is what lets the PML fragment messages and the GPU engine pipeline
// pack/unpack - the cursor is the moral equivalent of Open MPI's
// convertor position.
//
// Cursor state is a small copyable value: protocols snapshot it freely.
//
// Two granularities. next() yields pieces: one per block of each element,
// split at the budget. next_run() yields runs: consecutive pieces merged
// while each starts where the previous one ended - across blocks, loop
// iterations and element seams - cut at the budget. cpu_pack/cpu_unpack
// copy one run per memcpy and count it in PackStats::runs, which the PML,
// the collectives and the baselines charge one host walk step each, so a
// dense count costs what contiguous(n, t) costs. DevCursor (core/dev.h)
// cuts each unbudgeted run into DEV units of at most S bytes and charges
// the walk once per run. next() stays per piece for the callers that
// model one copy per block (baselines/vectorize.cpp, the per-block
// cudaMemcpy baselines) and for pieces_produced().
//
// next_run() reads no piece ahead: once a piece is out, the cursor
// already sits on the next one, so the run is extended only after its
// start is seen to abut. bytes_consumed() and done() therefore count
// exactly the bytes handed out, and next() and next_run() mix freely.
// A run is still walked piece by piece; there is no dense-count shortcut.
//
// Programs that are a single kBlock (primitives, contiguous(n, t),
// single-block resized types) take a one-block path: element e's piece
// starts at e * extent + disp + in_block, split at the budget as usual,
// with no frame stack or instruction stepping.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "mpi/datatype.h"

namespace gpuddt::mpi {

/// One contiguous piece of a datatype: `offset` bytes from the user base
/// pointer, `len` bytes long.
struct Block {
  std::int64_t offset = 0;
  std::int64_t len = 0;
};

class BlockCursor {
 public:
  BlockCursor() = default;
  BlockCursor(DatatypePtr dt, std::int64_t count);

  /// Produce the next piece, at most `max_bytes` long. Returns false when
  /// the traversal is complete. A block longer than `max_bytes` is split;
  /// the next call resumes inside it.
  bool next(std::int64_t max_bytes, Block* out);

  /// Convenience: full blocks.
  bool next(Block* out) { return next(INT64_MAX, out); }

  /// Produce the next contiguous run, at most `max_bytes` long: pieces
  /// are merged while each starts where the previous one ended. Returns
  /// false when the traversal is complete. A run cut at `max_bytes`
  /// resumes at the next call, as a run of its own.
  bool next_run(std::int64_t max_bytes, Block* out);

  bool done() const { return remaining_ == 0; }
  std::int64_t bytes_remaining() const { return remaining_; }
  std::int64_t bytes_consumed() const { return total_ - remaining_; }
  std::int64_t total_bytes() const { return total_; }

  /// Pieces walked so far by next() and next_run() alike: one per block
  /// of each element, a block split at a budget counting once per part.
  std::int64_t pieces_produced() const { return pieces_; }

 private:
  struct Frame {
    std::int32_t loop_instr = 0;  // index of the kLoop instruction
    std::int64_t iter = 0;
    std::int64_t base = 0;    // frame base of the current iteration
    std::int64_t origin = 0;  // parent base + loop disp
  };

  /// The program walk of next() (merge false) and next_run() (merge
  /// true): take pieces up to `max_bytes`, going on while merge is set
  /// and the next block starts where the taken bytes end.
  bool next_in_program(std::int64_t max_bytes, bool merge, Block* out);
  void advance_instr();

  DatatypePtr dt_;
  const std::vector<Instr>* prog_ = nullptr;  // dt_->program()
  std::int64_t count_ = 0;
  std::int64_t elem_ = 0;      // current element index
  std::int64_t elem_base_ = 0; // elem_ * extent
  std::int32_t ip_ = 0;        // instruction pointer within program
  std::int64_t blk_start_ = 0; // offset of ip_'s block (advance_instr)
  std::vector<Frame> stack_;
  std::int64_t in_block_ = 0;  // bytes consumed of the current block
  std::int64_t remaining_ = 0;
  std::int64_t total_ = 0;
  std::int64_t pieces_ = 0;
  // One-block path: the program's only block and the element stride;
  // elem_base_ advances by extent_ and elem_ is not used.
  bool one_block_ = false;
  std::int64_t blk_disp_ = 0;
  std::int64_t blk_len_ = 0;
  std::int64_t extent_ = 0;
};

}  // namespace gpuddt::mpi

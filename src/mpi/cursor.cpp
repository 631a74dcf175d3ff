#include "mpi/cursor.h"

#include <algorithm>

namespace gpuddt::mpi {

BlockCursor::BlockCursor(DatatypePtr dt, std::int64_t count,
                         ProgramView view)
    : dt_(std::move(dt)), count_(count) {
  assert(count >= 0);
  prog_ = view == ProgramView::kCanonical ? &dt_->canonical_program()
                                          : &dt_->program();
  total_ = remaining_ = dt_->size() * count_;
  if (count_ == 0 || prog_->empty()) remaining_ = total_ = 0;
  elem_base_ = 0;
  if (prog_->size() == 1 && prog_->front().op == Instr::Op::kBlock) {
    one_block_ = true;
    blk_disp_ = prog_->front().disp;
    blk_len_ = prog_->front().len;
    extent_ = dt_->extent();
  }
}

/// Move the instruction pointer past the just-finished instruction,
/// unwinding loop frames and element boundaries as needed. On return,
/// either remaining_ == 0 or ip_ points at a kBlock ready to emit, with
/// the correct frame base on top of the stack.
void BlockCursor::advance_instr() {
  const auto& prog = *prog_;
  ++ip_;
  for (;;) {
    if (ip_ >= static_cast<std::int32_t>(prog.size())) {
      // End of one element.
      if (!stack_.empty()) {
        // Malformed program (loop without end) - treat as element end.
        stack_.clear();
      }
      ++elem_;
      if (elem_ >= count_) return;  // fully done
      elem_base_ = elem_ * dt_->extent();
      ip_ = 0;
      continue;
    }
    const Instr& in = prog[ip_];
    if (in.op == Instr::Op::kBlock) {
      return;
    }
    if (in.op == Instr::Op::kLoop) {
      if (in.count <= 0) {
        ip_ = in.body_end + 1;
        continue;
      }
      Frame f;
      f.loop_instr = ip_;
      f.iter = 0;
      f.origin = (stack_.empty() ? elem_base_ : stack_.back().base) + in.disp;
      f.base = f.origin;
      stack_.push_back(f);
      ++ip_;
      continue;
    }
    // kEndLoop
    Frame& f = stack_.back();
    const Instr& lp = prog[f.loop_instr];
    ++f.iter;
    if (f.iter < lp.count) {
      f.base = f.origin + f.iter * lp.step;
      ip_ = f.loop_instr + 1;
    } else {
      stack_.pop_back();
      ++ip_;
    }
  }
}

bool BlockCursor::next(std::int64_t max_bytes, Block* out) {
  if (remaining_ == 0 || max_bytes <= 0) return false;
  if (!one_block_) return next_in_program(max_bytes, out);
  const std::int64_t take = std::min(blk_len_ - in_block_, max_bytes);
  out->offset = elem_base_ + blk_disp_ + in_block_;
  out->len = take;
  in_block_ += take;
  remaining_ -= take;
  ++pieces_;
  if (in_block_ == blk_len_) {
    in_block_ = 0;
    elem_base_ += extent_;
  }
  return true;
}

bool BlockCursor::next_in_program(std::int64_t max_bytes, Block* out) {
  const auto& prog = *prog_;
  // Position on a block: at construction ip_ == 0 which may not be a block.
  if (in_block_ == 0) {
    // If ip_ doesn't currently point at a block (fresh cursor or after
    // finishing one), find the next block.
    if (ip_ >= static_cast<std::int32_t>(prog.size()) ||
        prog[ip_].op != Instr::Op::kBlock) {
      --ip_;  // advance_instr pre-increments
      advance_instr();
      if (remaining_ == 0 || elem_ >= count_) return false;
    }
  }
  const Instr& blk = prog[ip_];
  const std::int64_t base = stack_.empty() ? elem_base_ : stack_.back().base;
  const std::int64_t avail = blk.len - in_block_;
  const std::int64_t take = std::min(avail, max_bytes);
  out->offset = base + blk.disp + in_block_;
  out->len = take;
  in_block_ += take;
  remaining_ -= take;
  ++pieces_;
  if (in_block_ == blk.len) {
    in_block_ = 0;
    if (remaining_ > 0) advance_instr();
  }
  return true;
}

}  // namespace gpuddt::mpi

#include "mpi/cursor.h"

#include <algorithm>

namespace gpuddt::mpi {

BlockCursor::BlockCursor(DatatypePtr dt, std::int64_t count)
    : dt_(std::move(dt)), count_(count) {
  assert(count >= 0);
  prog_ = &dt_->program();
  total_ = remaining_ = dt_->size() * count_;
  if (count_ == 0 || prog_->empty()) remaining_ = total_ = 0;
  elem_base_ = 0;
  if (prog_->size() == 1 && prog_->front().op == Instr::Op::kBlock) {
    one_block_ = true;
    blk_disp_ = prog_->front().disp;
    blk_len_ = prog_->front().len;
    extent_ = dt_->extent();
  } else if (remaining_ > 0) {
    ip_ = -1;  // advance_instr pre-increments onto the first block
    advance_instr();
  }
}

/// Move the instruction pointer past the just-finished instruction,
/// unwinding loop frames and element boundaries as needed. On return,
/// either remaining_ == 0 or ip_ points at a kBlock ready to emit, with
/// the correct frame base on top of the stack and blk_start_ set.
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
      blk_start_ = (stack_.empty() ? elem_base_ : stack_.back().base) + in.disp;
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
  if (!one_block_) return next_in_program(max_bytes, /*merge=*/false, out);
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

bool BlockCursor::next_run(std::int64_t max_bytes, Block* out) {
  if (!one_block_) {
    return remaining_ > 0 && max_bytes > 0 &&
           next_in_program(max_bytes, /*merge=*/true, out);
  }
  Block run;
  if (!next(max_bytes, &run)) return false;
  // Unless the budget cut it, the element's block is done and the cursor
  // sits at the next element's.
  Block b;
  while (run.len < max_bytes && remaining_ > 0 &&
         elem_base_ + blk_disp_ == run.offset + run.len &&
         next(max_bytes - run.len, &b))
    run.len += b.len;
  *out = run;
  return true;
}

bool BlockCursor::next_in_program(std::int64_t max_bytes, bool merge,
                                  Block* out) {
  const auto& prog = *prog_;
  const std::int64_t offset = blk_start_ + in_block_;
  std::int64_t len = 0;
  for (;;) {
    const std::int64_t blk_len = prog[ip_].len;
    const std::int64_t take = std::min(blk_len - in_block_, max_bytes - len);
    len += take;
    in_block_ += take;
    remaining_ -= take;
    ++pieces_;
    if (in_block_ < blk_len) break;
    in_block_ = 0;
    if (remaining_ == 0) break;
    advance_instr();
    if (!merge || len == max_bytes || blk_start_ != offset + len) break;
  }
  out->offset = offset;
  out->len = len;
  return true;
}

}  // namespace gpuddt::mpi

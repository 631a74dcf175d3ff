#include "baselines/alternatives.h"

#include "mpi/cpu_pack.h"
#include "mpi/cursor.h"

namespace gpuddt::base {

PackOutcome pack_stage_whole(sg::HostContext& ctx, const mpi::DatatypePtr& dt,
                             std::int64_t count, const void* dev_buf,
                             std::byte* host_scratch, std::byte* host_packed) {
  const vt::Time t0 = ctx.clock.now();
  const std::int64_t lb = dt->true_lb();
  const std::int64_t span =
      dt->true_extent() + (count > 0 ? (count - 1) * dt->extent() : 0);
  // One bulk D2H of the whole extent, gaps and all.
  sg::Memcpy(ctx, host_scratch,
             static_cast<const std::byte*>(dev_buf) + lb,
             static_cast<std::size_t>(span));
  // CPU datatype engine packs from the host mirror.
  const auto st = mpi::cpu_pack(
      dt, count, host_scratch - lb,
      std::span<std::byte>(host_packed,
                           static_cast<std::size_t>(dt->size() * count)));
  const sg::CostModel& cm = ctx.cost();
  ctx.clock.advance(cm.cpu_copy_ns(st.bytes) +
                    static_cast<vt::Time>(cm.cpu_block_walk_ns *
                                          static_cast<double>(st.runs)));
  return {ctx.clock.now() - t0, host_packed, true};
}

PackOutcome pack_per_block_d2h(sg::HostContext& ctx,
                               const mpi::DatatypePtr& dt, std::int64_t count,
                               const void* dev_buf, std::byte* host_packed) {
  const vt::Time t0 = ctx.clock.now();
  mpi::BlockCursor cur(dt, count);
  const auto* base = static_cast<const std::byte*>(dev_buf);
  std::int64_t pk = 0;
  mpi::Block b;
  while (cur.next(&b)) {
    // The overhead of launching one cudaMemcpy per block is the point.
    sg::Memcpy(ctx, host_packed + pk, base + b.offset,
               static_cast<std::size_t>(b.len));
    pk += b.len;
  }
  return {ctx.clock.now() - t0, host_packed, true};
}

PackOutcome pack_per_block_d2d(sg::HostContext& ctx,
                               const mpi::DatatypePtr& dt, std::int64_t count,
                               const void* dev_buf, std::byte* dev_packed) {
  const vt::Time t0 = ctx.clock.now();
  mpi::BlockCursor cur(dt, count);
  const auto* base = static_cast<const std::byte*>(dev_buf);
  std::int64_t pk = 0;
  mpi::Block b;
  while (cur.next(&b)) {
    sg::Memcpy(ctx, dev_packed + pk, base + b.offset,
               static_cast<std::size_t>(b.len));
    pk += b.len;
  }
  return {ctx.clock.now() - t0, dev_packed, false};
}

PackOutcome pack_gpu_kernel(core::GpuDatatypeEngine& eng,
                            const mpi::DatatypePtr& dt, std::int64_t count,
                            const void* dev_buf, std::byte* dev_packed) {
  sg::HostContext& ctx = eng.ctx();
  const vt::Time t0 = ctx.clock.now();
  auto op = eng.start(core::GpuDatatypeEngine::Dir::kPack, dt, count,
                      const_cast<void*>(dev_buf));
  ctx.clock.wait_until(eng.drain(*op, dev_packed).ready);
  return {ctx.clock.now() - t0, dev_packed, false};
}

}  // namespace gpuddt::base

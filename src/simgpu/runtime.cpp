#include "simgpu/runtime.h"

#include <cstring>
#include <initializer_list>
#include <stdexcept>
#include <vector>

namespace gpuddt::sg {

namespace {

enum class CopyKind { kH2H, kH2D, kD2H, kD2DSame, kD2DPeer };

struct ResolvedCopy {
  CopyKind kind;
  int src_device = -1;
  int dst_device = -1;
};

ResolvedCopy resolve(const HostContext& ctx, const void* dst,
                     const void* src) {
  const PtrAttributes s = ctx.machine->query(src);
  const PtrAttributes d = ctx.machine->query(dst);
  const bool src_dev = s.space == MemorySpace::kDevice;
  const bool dst_dev = d.space == MemorySpace::kDevice;
  if (src_dev && dst_dev) {
    if (s.device == d.device)
      return {CopyKind::kD2DSame, s.device, d.device};
    return {CopyKind::kD2DPeer, s.device, d.device};
  }
  if (src_dev) return {CopyKind::kD2H, s.device, -1};
  if (dst_dev) return {CopyKind::kH2D, -1, d.device};
  return {CopyKind::kH2H, -1, -1};
}

/// Reserve the timed resources for a copy whose earliest start is
/// `earliest`; returns its virtual finish time.
vt::Time reserve_copy(HostContext& ctx, const ResolvedCopy& rc,
                      std::int64_t eff_bytes, vt::Time earliest,
                      vt::Time extra_per_call) {
  const CostModel& cm = ctx.cost();
  switch (rc.kind) {
    case CopyKind::kH2H: {
      // Plain host memcpy on the calling core; no device resource.
      return earliest + cm.cpu_copy_ns(eff_bytes) + extra_per_call;
    }
    case CopyKind::kH2D: {
      const vt::Time dur =
          cm.pcie_latency_ns + cm.h2d_ns(eff_bytes) + extra_per_call;
      return ctx.machine->device(rc.dst_device)
          .pcie()
          .reserve(earliest, dur)
          .finish;
    }
    case CopyKind::kD2H: {
      const vt::Time dur =
          cm.pcie_latency_ns + cm.d2h_ns(eff_bytes) + extra_per_call;
      return ctx.machine->device(rc.src_device)
          .pcie()
          .reserve(earliest, dur)
          .finish;
    }
    case CopyKind::kD2DSame: {
      const vt::Time dur = cm.d2d_copy_ns(eff_bytes) + extra_per_call;
      return ctx.machine->device(rc.src_device)
          .copy_engine()
          .reserve(earliest, dur)
          .finish;
    }
    case CopyKind::kD2DPeer: {
      Machine& m = *ctx.machine;
      if (m.nvlink_connected(rc.src_device, rc.dst_device)) {
        // Endpoints share an NVLink domain: the copy rides both devices'
        // NVLink ports and never touches the PCI-E switch.
        const TopologyConfig& topo = m.config().topo;
        const vt::Time dur = topo.nvlink_latency_ns +
                             vt::transfer_time(eff_bytes, topo.nvlink_gbps) +
                             extra_per_call;
        const auto r1 =
            m.device(rc.src_device).nvlink().reserve(earliest, dur);
        const auto r2 =
            m.device(rc.dst_device).nvlink().reserve(r1.start, dur);
        return r2.finish;
      }
      const vt::Time dur =
          cm.pcie_latency_ns + cm.peer_ns(eff_bytes) + extra_per_call;
      // The transfer occupies both endpoints' PCI-E links.
      const auto r1 = m.device(rc.src_device).pcie().reserve(earliest, dur);
      const auto r2 = m.device(rc.dst_device).pcie().reserve(r1.start, dur);
      return r2.finish;
    }
  }
  return earliest;
}

/// Register an operation's byte ranges with the machine's access observer
/// (no-op when checking is off).
void note_op(HostContext& ctx, const char* label, const Stream* stream,
             int device, vt::Time start, vt::Time finish,
             std::span<const MemRange> ranges) {
  AccessObserver* obs = ctx.machine->observer();
  if (obs == nullptr) return;
  OpInfo info;
  info.label = label;
  info.queue = stream;
  info.queue_name = stream != nullptr ? stream->name() : nullptr;
  info.device = device;
  info.start = start;
  info.finish = finish;
  obs->on_op(info, ranges);
}

void note_op(HostContext& ctx, const char* label, const Stream* stream,
             int device, vt::Time start, vt::Time finish,
             std::initializer_list<MemRange> ranges) {
  note_op(ctx, label, stream, device, start, finish,
          std::span<const MemRange>(ranges.begin(), ranges.size()));
}

int copy_device(const ResolvedCopy& rc) {
  return rc.dst_device >= 0 ? rc.dst_device : rc.src_device;
}

/// 2D copies register per-row ranges (so interleaved-column traffic is
/// judged exactly) up to a row cap, beyond which one conservative
/// spanning range per side keeps tracking cost bounded.
constexpr std::size_t kMax2DRowRanges = 512;

void note_2d(HostContext& ctx, const ResolvedCopy& rc, vt::Time start,
             vt::Time finish, void* dst, std::size_t dpitch, const void* src,
             std::size_t spitch, std::size_t width, std::size_t height) {
  if (ctx.machine->observer() == nullptr) return;
  std::vector<MemRange> rs;
  rs.reserve(2 * std::min(height, kMax2DRowRanges));
  const auto add_side = [&](const void* p, std::size_t pitch, bool write) {
    const auto* b = static_cast<const std::byte*>(p);
    if (pitch == width) {
      rs.push_back({b, static_cast<std::int64_t>(width * height), write});
    } else if (height <= kMax2DRowRanges) {
      for (std::size_t h = 0; h < height; ++h)
        rs.push_back(
            {b + h * pitch, static_cast<std::int64_t>(width), write});
    } else {
      rs.push_back({b, static_cast<std::int64_t>((height - 1) * pitch + width),
                    write});
    }
  };
  add_side(src, spitch, false);
  add_side(dst, dpitch, true);
  note_op(ctx, "memcpy2d", nullptr, copy_device(rc), start, finish,
          std::span<const MemRange>(rs.data(), rs.size()));
}

}  // namespace

void NoteAccess(HostContext& ctx, const char* label, vt::Time start,
                vt::Time finish, std::span<const MemRange> ranges) {
  note_op(ctx, label, nullptr, -1, start, finish, ranges);
}

void* Malloc(HostContext& ctx, std::size_t bytes) {
  ctx.clock.advance(vt::usec(2.0));
  std::byte* p = ctx.dev().arena().allocate(bytes);
  ctx.machine->poison_fresh(p, bytes);
  return p;
}

void Free(HostContext& ctx, void* ptr) {
  if (ptr == nullptr) return;
  const PtrAttributes a = ctx.machine->query(ptr);
  if (a.space != MemorySpace::kDevice)
    throw std::invalid_argument("sg::Free: not a device pointer");
  Arena& arena = ctx.machine->device(a.device).arena();
  const std::size_t bytes = arena.allocation_size(ptr);
  arena.deallocate(static_cast<std::byte*>(ptr));
  if (AccessObserver* obs = ctx.machine->observer())
    obs->on_release(ptr, bytes);
}

void* HostAlloc(HostContext& ctx, std::size_t bytes, bool mapped) {
  ctx.clock.advance(vt::usec(2.0));
  return ctx.machine->host_alloc(bytes, mapped);
}

void HostFree(HostContext& ctx, void* ptr) { ctx.machine->host_free(ptr); }

void Memcpy(HostContext& ctx, void* dst, const void* src, std::size_t bytes) {
  if (bytes == 0) return;
  const ResolvedCopy rc = resolve(ctx, dst, src);
  std::memcpy(dst, src, bytes);
  const vt::Time overhead =
      rc.kind == CopyKind::kH2H ? 0 : ctx.cost().memcpy_call_ns;
  ctx.clock.advance(overhead);
  const vt::Time start = ctx.clock.now();
  const vt::Time finish =
      reserve_copy(ctx, rc, static_cast<std::int64_t>(bytes), start, 0);
  note_op(ctx, "memcpy", nullptr, copy_device(rc), start, finish,
          {MemRange{src, static_cast<std::int64_t>(bytes), false},
           MemRange{dst, static_cast<std::int64_t>(bytes), true}});
  ctx.clock.wait_until(finish);
}

vt::Time MemcpyAsync(HostContext& ctx, void* dst, const void* src,
                     std::size_t bytes, Stream& stream) {
  if (bytes == 0) return stream.tail();
  const ResolvedCopy rc = resolve(ctx, dst, src);
  std::memcpy(dst, src, bytes);
  ctx.clock.advance(ctx.cost().enqueue_ns);
  const vt::Time earliest = stream.order_after(ctx.clock.now());
  const vt::Time finish = reserve_copy(
      ctx, rc, static_cast<std::int64_t>(bytes), earliest,
      rc.kind == CopyKind::kH2H ? 0 : ctx.cost().memcpy_call_ns);
  note_op(ctx, "memcpy_async", &stream, copy_device(rc), earliest, finish,
          {MemRange{src, static_cast<std::int64_t>(bytes), false},
           MemRange{dst, static_cast<std::int64_t>(bytes), true}});
  stream.set_tail(finish);
  return finish;
}

namespace {

/// Effective bytes per row the 2D copy engine moves: rows are transferred
/// in `memcpy2d_granule`-sized bursts, and widths off the granule incur the
/// read-modify-write penalty the paper's Figure 8 demonstrates.
std::int64_t memcpy2d_effective_bytes(const CostModel& cm, std::size_t width,
                                      std::size_t height) {
  const std::int64_t g = cm.memcpy2d_granule;
  std::int64_t per_row =
      (static_cast<std::int64_t>(width) + g - 1) / g * g;
  if (static_cast<std::int64_t>(width) % g != 0) {
    per_row = static_cast<std::int64_t>(
        static_cast<double>(per_row) * cm.memcpy2d_misaligned_penalty);
  }
  return per_row * static_cast<std::int64_t>(height);
}

}  // namespace

void Memcpy2D(HostContext& ctx, void* dst, std::size_t dpitch, const void* src,
              std::size_t spitch, std::size_t width, std::size_t height) {
  if (width == 0 || height == 0) return;
  if (width > dpitch || width > spitch)
    throw std::invalid_argument("Memcpy2D: width exceeds pitch");
  const ResolvedCopy rc = resolve(ctx, dst, src);
  auto* d = static_cast<std::byte*>(dst);
  const auto* s = static_cast<const std::byte*>(src);
  for (std::size_t h = 0; h < height; ++h)
    std::memcpy(d + h * dpitch, s + h * spitch, width);
  const CostModel& cm = ctx.cost();
  const std::int64_t eff = memcpy2d_effective_bytes(cm, width, height);
  const vt::Time row_cost = static_cast<vt::Time>(
      cm.memcpy2d_row_ns * static_cast<double>(height));
  ctx.clock.advance(rc.kind == CopyKind::kH2H ? 0 : cm.memcpy_call_ns);
  const vt::Time start = ctx.clock.now();
  const vt::Time finish = reserve_copy(ctx, rc, eff, start, row_cost);
  note_2d(ctx, rc, start, finish, dst, dpitch, src, spitch, width, height);
  ctx.clock.wait_until(finish);
}

vt::Time TimedCopy(HostContext& ctx, void* dst, const void* src,
                   std::size_t bytes, vt::Time earliest, const char* label) {
  if (bytes == 0) return earliest;
  const ResolvedCopy rc = resolve(ctx, dst, src);
  std::memcpy(dst, src, bytes);
  const vt::Time start = std::max(earliest, vt::Time{0});
  const vt::Time finish =
      reserve_copy(ctx, rc, static_cast<std::int64_t>(bytes), start, 0);
  note_op(ctx, label, nullptr, copy_device(rc), start, finish,
          {MemRange{src, static_cast<std::int64_t>(bytes), false},
           MemRange{dst, static_cast<std::int64_t>(bytes), true}});
  return finish;
}

void StreamSynchronize(HostContext& ctx, Stream& stream) {
  ctx.clock.wait_until(stream.tail());
}

Event EventRecord(HostContext& ctx, Stream& stream) {
  (void)ctx;
  return Event{stream.tail()};
}

void StreamWaitEvent(HostContext& ctx, Stream& stream, const Event& ev) {
  (void)ctx;
  stream.set_tail(ev.timestamp);
}

vt::Time EventReadyOn(const HostContext& ctx, const Event& ev,
                      int origin_device, int target_device) {
  if (ev.timestamp == 0) return 0;  // never-recorded event: no dependency
  if (origin_device == target_device) return ev.timestamp;
  return ev.timestamp + ctx.cost().cross_event_wait_ns;
}

namespace {
double pcie_dir_gbps(const CostModel& cm, PcieDir dir) {
  switch (dir) {
    case PcieDir::kToHost:
      return cm.pcie_d2h_gbps;
    case PcieDir::kFromHost:
      return cm.pcie_h2d_gbps;
    case PcieDir::kPeer:
      return cm.kernel_peer_gbps;
    case PcieDir::kNone:
      break;
  }
  return cm.pcie_d2h_gbps;
}
}  // namespace

vt::Time KernelDuration(const CostModel& cm, const KernelProfile& profile,
                        int sms_available) {
  const int width = std::max(1, std::min(profile.blocks, sms_available));
  const vt::Time mem_ns = static_cast<vt::Time>(
      static_cast<double>(
          vt::transfer_time(profile.device_txn_bytes, cm.gpu_mem_gbps)) *
      (1.0 + cm.kernel_mem_inefficiency));
  const vt::Time compute_ns = vt::transfer_time(
      profile.device_txn_bytes, cm.sm_copy_gbps * static_cast<double>(width));
  const vt::Time pcie_ns = vt::transfer_time(
      profile.pcie_bytes, pcie_dir_gbps(cm, profile.pcie_dir));
  return cm.kernel_launch_ns + std::max({mem_ns, compute_ns, pcie_ns});
}

vt::Time LaunchKernel(HostContext& ctx, Stream& stream,
                      const KernelProfile& profile, const char* label,
                      std::span<const MemRange> ranges,
                      const vt::Time* triggered_at) {
  const CostModel& cm = ctx.cost();
  if (triggered_at == nullptr) ctx.clock.advance(cm.enqueue_ns);
  Device& dev = stream.device();
  const vt::Time earliest = stream.order_after(
      triggered_at != nullptr ? *triggered_at : ctx.clock.now());
  const int width = std::max(1, std::min(profile.blocks, dev.sm().capacity()));
  const vt::Time dur = KernelDuration(cm, profile, dev.sm().capacity());
  const auto r = dev.sm().reserve(earliest, dur, width);
  if (profile.pcie_bytes > 0) {
    // Zero-copy / peer traffic holds the PCI-E link for its share of the
    // kernel's duration.
    const vt::Time pcie_ns = vt::transfer_time(
        profile.pcie_bytes, pcie_dir_gbps(cm, profile.pcie_dir));
    dev.pcie().reserve(r.start, pcie_ns);
  }
  note_op(ctx, label, &stream, dev.id(), earliest, r.finish, ranges);
  stream.set_tail(r.finish);
  return r.finish;
}

IpcMemHandle IpcGetMemHandle(HostContext& ctx, void* device_ptr) {
  const PtrAttributes a = ctx.machine->query(device_ptr);
  if (a.space != MemorySpace::kDevice)
    throw std::invalid_argument("IpcGetMemHandle: not a device pointer");
  Arena& arena = ctx.machine->device(a.device).arena();
  const std::size_t size = arena.allocation_size(device_ptr);
  ctx.clock.advance(ctx.cost().ipc_get_handle_ns);
  return IpcMemHandle{
      a.device,
      static_cast<std::uint64_t>(static_cast<std::byte*>(device_ptr) -
                                 arena.base()),
      static_cast<std::uint64_t>(size)};
}

void* IpcOpenMemHandle(HostContext& ctx, const IpcMemHandle& handle) {
  if (handle.device < 0 || handle.device >= ctx.machine->num_devices())
    throw std::invalid_argument("IpcOpenMemHandle: bad handle");
  ctx.clock.advance(ctx.cost().ipc_open_ns);
  return ctx.machine->device(handle.device).arena().base() + handle.offset;
}

}  // namespace gpuddt::sg

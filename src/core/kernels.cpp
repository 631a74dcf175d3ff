#include "core/kernels.h"

#include <cstring>
#include <vector>

namespace gpuddt::core {

namespace {

/// Per-piece access ranges reported to the hazard detector. Only built when
/// the machine has an observer attached; above the cap we fall back to one
/// conservative spanning range per side (the tracker merges overlaps anyway).
constexpr std::size_t kMaxKernelRanges = 4096;

struct RangeBuilder {
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  std::vector<sg::MemRange> ranges;
  std::size_t last_src_ = kNone;
  std::size_t last_dst_ = kNone;
  const std::byte* src_lo = nullptr;
  const std::byte* src_hi = nullptr;
  std::byte* dst_lo = nullptr;
  std::byte* dst_hi = nullptr;
  bool spanning = false;

  void add(const std::byte* src, std::byte* dst, std::int64_t len) {
    if (len <= 0) return;
    if (src_lo == nullptr || src < src_lo) src_lo = src;
    if (src + len > src_hi) src_hi = src + len;
    if (dst_lo == nullptr || dst < dst_lo) dst_lo = dst;
    if (dst + len > dst_hi) dst_hi = dst + len;
    add_one(last_src_, src, len, false);
    add_one(last_dst_, dst, len, true);
  }

  // Extend the previously-pushed range of the same kind when the new piece
  // is contiguous with it, so the sequential side of a pack/unpack (the
  // packed buffer) collapses to one precise range instead of eating into
  // the cap and forcing the lossy spanning fallback.
  void add_one(std::size_t& last, const void* p, std::int64_t len,
               bool write) {
    if (spanning) return;
    const auto* b = static_cast<const std::byte*>(p);
    if (last != kNone) {
      sg::MemRange& r = ranges[last];
      if (b == static_cast<const std::byte*>(r.ptr) + r.len) {
        r.len += len;
        return;
      }
    }
    if (ranges.size() + 1 > kMaxKernelRanges) {
      spanning = true;
      ranges.clear();
      last_src_ = kNone;
      last_dst_ = kNone;
      return;
    }
    last = ranges.size();
    ranges.push_back({b, len, write});
  }

  std::span<const sg::MemRange> finish(const CudaDevDist* device_units,
                                       std::size_t n_units) {
    if (spanning) {
      if (src_lo != nullptr)
        ranges.push_back({src_lo, src_hi - src_lo, false});
      if (dst_lo != nullptr) ranges.push_back({dst_lo, dst_hi - dst_lo, true});
    }
    if (device_units != nullptr && n_units > 0) {
      ranges.push_back(
          {device_units,
           static_cast<std::int64_t>(n_units * sizeof(CudaDevDist)), false});
    }
    return ranges;
  }
};

/// How one side of a copy is reached from the kernel's device.
enum class Side { kLocalDevice, kPeerDevice, kMappedHost };

Side classify(const sg::HostContext& ctx, const sg::Stream& stream,
              const void* p) {
  const sg::PtrAttributes a = ctx.machine->query(p);
  if (a.space == sg::MemorySpace::kDevice) {
    return a.device == stream.device().id() ? Side::kLocalDevice
                                            : Side::kPeerDevice;
  }
  // Pinned-mapped or plain host memory: reached over PCI-E (the simulator
  // is permissive about non-mapped host pointers; the cost is identical).
  return Side::kMappedHost;
}

/// Accumulates the timing profile of a gather/scatter kernel.
struct Traffic {
  int shift;  // log2 of the transaction line size
  Side src_side;
  Side dst_side;
  sg::KernelProfile prof;

  Traffic(const sg::HostContext& ctx, const sg::Stream& stream,
          const void* src_base, const void* dst_base, int blocks)
      : shift(ctx.cost().txn_shift()),
        src_side(classify(ctx, stream, src_base)),
        dst_side(classify(ctx, stream, dst_base)) {
    prof.blocks = blocks;
    if (src_side == Side::kMappedHost) prof.pcie_dir = sg::PcieDir::kFromHost;
    if (dst_side == Side::kMappedHost) prof.pcie_dir = sg::PcieDir::kToHost;
    if (src_side == Side::kPeerDevice || dst_side == Side::kPeerDevice)
      prof.pcie_dir = sg::PcieDir::kPeer;
  }

  void add(std::int64_t src_off, std::int64_t dst_off, std::int64_t len) {
    add_side(src_side, src_off, len);
    add_side(dst_side, dst_off, len);
    prof.warp_rounds += (len + 255) / 256;
  }

  /// Charge descriptor-array reads (the kernel streams the CudaDevDist
  /// array from device memory).
  void add_descriptor_reads(std::int64_t n_units) {
    add_lines(0, n_units * static_cast<std::int64_t>(sizeof(CudaDevDist)));
  }

 private:
  void add_lines(std::int64_t off, std::int64_t len) {
    prof.device_txn_bytes += sg::CostModel::txn_lines(off, len, shift)
                             << shift;
  }

  void add_side(Side side, std::int64_t off, std::int64_t len) {
    switch (side) {
      case Side::kLocalDevice:
        add_lines(off, len);
        break;
      case Side::kPeerDevice:
      case Side::kMappedHost:
        prof.pcie_bytes += len;
        break;
    }
  }
};

/// Iterate the pieces of a packed-range vector operation:
/// `fn(nc_off, pk_off, len)` with pk_off relative to pk_lo. One division
/// places pk_lo in its block; every later piece starts the next block.
template <typename Fn>
void for_vector_range(const mpi::RegularPattern& pat, std::int64_t pk_lo,
                      std::int64_t pk_hi, Fn&& fn) {
  if (pat.blocklen <= 0 || pk_lo >= pk_hi) return;
  std::int64_t blk = pk_lo / pat.blocklen;
  std::int64_t intra = pk_lo - blk * pat.blocklen;
  std::int64_t nc = pat.first_disp + blk * pat.stride;
  for (std::int64_t pk = pk_lo; pk < pk_hi && blk < pat.count;
       ++blk, nc += pat.stride, intra = 0) {
    const std::int64_t take = std::min(pat.blocklen - intra, pk_hi - pk);
    fn(nc + intra, pk - pk_lo, take);
    pk += take;
  }
}

/// The one gather/scatter body. `walk(piece)` calls piece(nc, pk, len)
/// for each piece in kernel order, nc relative to `user_base` and pk to
/// `packed`; each piece is copied, priced and (under the checker) listed
/// in that one pass. A DEV kernel also streams its `n_units` descriptors
/// from `device_units`.
template <typename Walk>
vt::Time gather_scatter(sg::HostContext& ctx, sg::Stream& stream, Dir dir,
                        void* user_base, void* packed, Walk&& walk,
                        const CudaDevDist* device_units, std::size_t n_units,
                        int blocks, const char* label,
                        const vt::Time* triggered_at) {
  const bool pack = dir == Dir::kPack;
  auto* src = static_cast<std::byte*>(pack ? user_base : packed);
  auto* dst = static_cast<std::byte*>(pack ? packed : user_base);
  Traffic t(ctx, stream, src, dst, blocks);
  RangeBuilder rb;
  const bool observed = ctx.machine->observer() != nullptr;
  walk([&](std::int64_t nc, std::int64_t pk, std::int64_t len) {
    const std::int64_t s = pack ? nc : pk;
    const std::int64_t d = pack ? pk : nc;
    std::memcpy(dst + d, src + s, static_cast<std::size_t>(len));
    t.add(s, d, len);
    if (observed) rb.add(src + s, dst + d, len);
  });
  t.add_descriptor_reads(static_cast<std::int64_t>(n_units));
  return sg::LaunchKernel(ctx, stream, t.prof, label,
                          rb.finish(device_units, n_units), triggered_at);
}

}  // namespace

vt::Time vector_kernel(sg::HostContext& ctx, sg::Stream& stream, Dir dir,
                       void* user_base, const mpi::RegularPattern& pat,
                       std::int64_t pk_lo, std::int64_t pk_hi, void* packed,
                       int blocks, const vt::Time* triggered_at) {
  return gather_scatter(
      ctx, stream, dir, user_base, packed,
      [&](auto&& piece) { for_vector_range(pat, pk_lo, pk_hi, piece); },
      nullptr, 0, blocks,
      dir == Dir::kPack ? "pack_vector" : "unpack_vector", triggered_at);
}

vt::Time dev_kernel(sg::HostContext& ctx, sg::Stream& stream, Dir dir,
                    void* user_base, const DevWindow& win,
                    std::int64_t pk_base, void* packed,
                    const CudaDevDist* device_units, int blocks,
                    const vt::Time* triggered_at) {
  return gather_scatter(
      ctx, stream, dir, user_base, packed,
      [&](auto&& piece) {
        win.for_each([&](std::int64_t nc, std::int64_t pk, std::int64_t len) {
          piece(nc, pk - pk_base, len);
        });
      },
      device_units, win.size(), blocks,
      dir == Dir::kPack ? "pack_dev" : "unpack_dev", triggered_at);
}

}  // namespace gpuddt::core

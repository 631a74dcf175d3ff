#include "mpi/cpu_pack.h"

#include <cstring>
#include <stdexcept>

namespace gpuddt::mpi {

PackStats cpu_pack_some(BlockCursor& cursor, const void* src,
                        std::span<std::byte> out) {
  PackStats st;
  const auto* base = static_cast<const std::byte*>(src);
  std::int64_t room = static_cast<std::int64_t>(out.size());
  Block b;
  while (room > 0 && cursor.next_run(room, &b)) {
    std::memcpy(out.data() + st.bytes, base + b.offset,
                static_cast<std::size_t>(b.len));
    st.bytes += b.len;
    room -= b.len;
    ++st.runs;
  }
  return st;
}

PackStats cpu_unpack_some(BlockCursor& cursor, std::span<const std::byte> in,
                          void* dst) {
  PackStats st;
  auto* base = static_cast<std::byte*>(dst);
  std::int64_t avail = static_cast<std::int64_t>(in.size());
  Block b;
  while (avail > 0 && cursor.next_run(avail, &b)) {
    std::memcpy(base + b.offset, in.data() + st.bytes,
                static_cast<std::size_t>(b.len));
    st.bytes += b.len;
    avail -= b.len;
    ++st.runs;
  }
  return st;
}

PackStats cpu_pack(const DatatypePtr& dt, std::int64_t count, const void* src,
                   std::span<std::byte> out) {
  if (static_cast<std::int64_t>(out.size()) < dt->size() * count)
    throw std::invalid_argument("cpu_pack: output buffer too small");
  BlockCursor cur(dt, count);
  return cpu_pack_some(cur, src, out.first(
      static_cast<std::size_t>(dt->size() * count)));
}

PackStats cpu_unpack(const DatatypePtr& dt, std::int64_t count,
                     std::span<const std::byte> in, void* dst) {
  if (static_cast<std::int64_t>(in.size()) < dt->size() * count)
    throw std::invalid_argument("cpu_unpack: input buffer too small");
  BlockCursor cur(dt, count);
  return cpu_unpack_some(
      cur, in.first(static_cast<std::size_t>(dt->size() * count)), dst);
}

}  // namespace gpuddt::mpi

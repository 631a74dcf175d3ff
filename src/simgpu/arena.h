// A simple first-fit arena allocator.
//
// Each simulated device owns one arena backed by a single host allocation;
// "device pointers" are real host pointers into that block, which lets the
// simulated kernels and copy engines move bytes with plain memcpy while the
// pointer registry still distinguishes address spaces. A destroyed arena
// gives its storage to a process-wide pool, and the next arena of the same
// capacity takes it back with fresh free lists, so a machine built after
// another of its shape reuses pages the kernel has already faulted in.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

namespace gpuddt::sg {

class Arena {
 public:
  /// Allocation alignment; 512 mirrors cudaMalloc's large alignment and
  /// keeps every fresh device buffer transaction-aligned.
  static constexpr std::size_t kAlign = 512;

  /// Contents of the storage are unspecified, as after cudaMalloc: it is
  /// either fresh or what an earlier arena of this capacity left behind.
  explicit Arena(std::size_t capacity)
      : capacity_(round_up(capacity)),
        storage_(Pool::instance().take(capacity_ + kAlign)) {
    const auto raw = reinterpret_cast<std::uintptr_t>(storage_.get());
    base_ = storage_.get() + (kAlign - raw % kAlign) % kAlign;
    free_[base()] = capacity_;
  }

  ~Arena() { Pool::instance().give(capacity_ + kAlign, std::move(storage_)); }

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  std::byte* base() const { return base_; }
  std::size_t capacity() const { return capacity_; }

  bool contains(const void* p) const {
    auto* b = static_cast<const std::byte*>(p);
    return b >= base() && b < base() + capacity_;
  }

  std::byte* allocate(std::size_t bytes) {
    const std::size_t need = round_up(bytes == 0 ? 1 : bytes);
    for (auto it = free_.begin(); it != free_.end(); ++it) {
      if (it->second >= need) {
        std::byte* p = it->first;
        const std::size_t remaining = it->second - need;
        free_.erase(it);
        if (remaining > 0) free_[p + need] = remaining;
        allocated_[p] = need;
        in_use_ += need;
        return p;
      }
    }
    throw std::bad_alloc();
  }

  void deallocate(std::byte* p) {
    if (p == nullptr) return;
    auto it = allocated_.find(p);
    if (it == allocated_.end())
      throw std::invalid_argument("Arena::deallocate: unknown pointer");
    std::size_t size = it->second;
    in_use_ -= size;
    allocated_.erase(it);
    // Coalesce with the next free block.
    auto next = free_.lower_bound(p);
    if (next != free_.end() && p + size == next->first) {
      size += next->second;
      next = free_.erase(next);
    }
    // Coalesce with the previous free block.
    if (next != free_.begin()) {
      auto prev = std::prev(next);
      if (prev->first + prev->second == p) {
        prev->second += size;
        return;
      }
    }
    free_[p] = size;
  }

  std::size_t bytes_in_use() const {
    return in_use_;
  }

  /// Size of the live allocation starting at p (0 if p is not live).
  std::size_t allocation_size(const void* p) const {
    auto it = allocated_.find(const_cast<std::byte*>(static_cast<const std::byte*>(p)));
    return it == allocated_.end() ? 0 : it->second;
  }

  /// Base and size of the live allocation *containing* p (interior
  /// pointers resolve to their block), or {nullptr, 0} when p does not
  /// point into a live allocation. Used by the access checker to key
  /// tracked ranges per buffer.
  std::pair<std::byte*, std::size_t> allocation_span(const void* p) const {
    auto* b = const_cast<std::byte*>(static_cast<const std::byte*>(p));
    auto it = allocated_.upper_bound(b);
    if (it == allocated_.begin()) return {nullptr, 0};
    --it;
    if (b >= it->first && b < it->first + it->second)
      return {it->first, it->second};
    return {nullptr, 0};
  }

 private:
  using Storage = std::unique_ptr<std::byte[]>;

  /// The process-wide store of released arena storage. It holds blocks of
  /// one size only: a request for another size frees everything held, so
  /// it never keeps more than one machine shape. The first Arena
  /// constructor creates it, so it outlives every Arena. It takes no lock:
  /// the simulator runs on one thread (docs/determinism.md).
  class Pool {
   public:
    static Pool& instance() {
      static Pool pool;
      return pool;
    }

    /// A block of `bytes`, oldest released first, so device d of the next
    /// machine gets device d's storage back; uninitialized when fresh.
    Storage take(std::size_t bytes) {
      if (bytes != bytes_) {
        held_.clear();
        bytes_ = bytes;
      }
      if (held_.empty())
        return std::make_unique_for_overwrite<std::byte[]>(bytes);
      Storage s = std::move(held_.front());
      held_.erase(held_.begin());
      return s;
    }

    /// Keep a released block for the next take of its size; a block of
    /// another size than the one held is freed.
    void give(std::size_t bytes, Storage s) {
      if (bytes == bytes_) held_.push_back(std::move(s));
    }

   private:
    std::size_t bytes_ = 0;
    std::vector<Storage> held_;
  };

  static std::size_t round_up(std::size_t n) {
    return (n + kAlign - 1) / kAlign * kAlign;
  }

  std::size_t capacity_;
  Storage storage_;
  std::byte* base_ = nullptr;
  // Interval maps over this arena's own buffer: relative key order equals
  // offset order within storage_, and the order is never emitted.
  // det-lint: allow(pointer_order) - arena-internal interval map
  std::map<std::byte*, std::size_t> free_;       // start -> size
  // det-lint: allow(pointer_order) - arena-internal interval map
  std::map<std::byte*, std::size_t> allocated_;  // start -> size
  std::size_t in_use_ = 0;
};

}  // namespace gpuddt::sg

#include "core/dev_cache.h"

#include <cstring>
#include <span>

#include "check/dev_invariants.h"
#include "obs/recorder.h"
#include "verify/hook.h"

namespace gpuddt::core {

void DevCache::set_recorder(obs::Recorder* rec) {
  rec_ = rec;
  if (rec_ == nullptr) return;
  // Pre-register the core cache counters so a dump always reports them,
  // even when (e.g.) nothing was ever evicted.
  rec_->metrics().counter("dev_cache.hits");
  rec_->metrics().counter("dev_cache.misses");
  rec_->metrics().counter("dev_cache.evictions");
  rec_->metrics().counter("dev_cache.bytes");
  rec_->metrics().counter("dev_cache.evictions_bytes");
  rec_->metrics().counter("dev_cache.shape_dedup.hits");
  rec_->metrics().counter("dev_cache.shape_dedup.inserts_coalesced");
  rec_->metrics().counter("dev_cache.shape_dedup.bytes_saved");
  // Verifier hook counters (src/verify/hook.h): pre-registered so dumps
  // report zeroes when certification is disabled for the run.
  rec_->metrics().counter("verify.obligations.proved");
  rec_->metrics().counter("verify.obligations.failed");
  rec_->metrics().counter("verify.devs.certified");
  rec_->metrics().counter("verify.devs.rejected");
  rec_->metrics().counter("verify.prover_ns");
}

std::uint64_t DevCache::key_hash(std::uint64_t shape, std::int64_t count,
                                 std::int64_t unit_bytes) {
  // FNV-1a over every byte of the (shape, count, unit_bytes) triple.
  std::uint64_t h = 14695981039346656037ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  mix(shape);
  mix(static_cast<std::uint64_t>(count));
  mix(static_cast<std::uint64_t>(unit_bytes));
  return h;
}

void DevCache::touch(const Node& n) const {
  lru_.splice(lru_.begin(), lru_, n.lru_it);
}

const DevCache::Entry* DevCache::find(const mpi::DatatypePtr& dt,
                                      std::int64_t count,
                                      std::int64_t unit_bytes) const {
  const Key k{dt->shape_digest(), count, unit_bytes};
  auto it = entries_.find(k);
  if (it == entries_.end()) {
    ++misses_;
    obs::count(rec_, "dev_cache.misses");
    return nullptr;
  }
  ++hits_;
  obs::count(rec_, "dev_cache.hits");
  if (it->second.entry->first_type_id != dt->type_id()) {
    // Served to a different instance than the one that compiled it: the
    // shape keying just saved a full conversion + upload.
    ++shape_dedup_hits_;
    obs::count(rec_, "dev_cache.shape_dedup.hits");
  }
  touch(it->second);
  return it->second.entry.get();
}

const DevCache::Entry* DevCache::insert(sg::HostContext& ctx,
                                        const mpi::DatatypePtr& dt,
                                        std::int64_t count,
                                        std::int64_t unit_bytes,
                                        std::vector<CudaDevDist> units) {
  const Key k{dt->shape_digest(), count, unit_bytes};
  if (validate_ && count > 0) {
    const std::int64_t tlb = dt->true_lb();
    const check::DevListBounds b{
        tlb, tlb + (count - 1) * dt->extent() + dt->true_extent(),
        dt->size() * count, unit_bytes};
    check::validate_dev_list(std::span<const CudaDevDist>(units), b,
                             "dev_cache.insert");
  }
  if (verify::verify_switch.enabled()) {
    // Symbolic certification (src/verify/): proves the unit list
    // byte-exact against the datatype's tree/program/canonical layouts
    // before the DEV can become reachable from the cache. Throws
    // verify::CertificationFailure on any unproven obligation.
    verify::certify_insert(dt, count, unit_bytes,
                           std::span<const CudaDevDist>(units), rec_);
  }
  auto it = entries_.find(k);
  if (it != entries_.end()) {
    Entry& e = *it->second.entry;
    if (e.units == units) {
      // Same program resident already: keep the existing copy (and its
      // device uploads). Count the coalesce when another instance of the
      // shape raced the fill.
      if (e.first_type_id != dt->type_id()) {
        ++shape_dedup_coalesced_;
        shape_dedup_bytes_saved_ += entry_bytes(e);
        obs::count(rec_, "dev_cache.shape_dedup.inserts_coalesced");
        obs::count(rec_, "dev_cache.shape_dedup.bytes_saved",
                   entry_bytes(e));
      }
      touch(it->second);
      return &e;
    }
    // Re-insert with a different program (e.g. the same shape converted
    // under a different engine state): replace the units and charge the
    // byte *delta* - the old accounting double-counted the entry.
    const std::int64_t old_bytes = entry_bytes(e);
    for (auto& [dev, ptr] : e.device_copies) sg::Free(ctx, ptr);
    e.device_copies.clear();
    e.total_bytes = 0;
    for (const auto& u : units) e.total_bytes += u.length;
    e.units = std::move(units);
    e.first_type_id = dt->type_id();
    const std::int64_t delta = entry_bytes(e) - old_bytes;
    bytes_ += delta;
    obs::count(rec_, "dev_cache.bytes", delta);
    touch(it->second);
    evict_if_needed(ctx);
    // evict_if_needed never evicts the most-recent entry, so `e` stays
    // valid here.
    return &e;
  }
  auto entry = std::make_unique<Entry>();
  entry->total_bytes = 0;
  for (const auto& u : units) entry->total_bytes += u.length;
  entry->units = std::move(units);
  entry->first_type_id = dt->type_id();
  const Entry* out = entry.get();
  bytes_ += entry_bytes(*entry);
  obs::count(rec_, "dev_cache.bytes", entry_bytes(*entry));
  lru_.push_front(k);
  entries_.emplace(k, Node{std::move(entry), lru_.begin()});
  obs::count(rec_, "dev_cache.inserts");
  evict_if_needed(ctx);
  return out;
}

const CudaDevDist* DevCache::device_units(sg::HostContext& ctx,
                                          const Entry& entry) {
  auto& e = const_cast<Entry&>(entry);
  auto it = e.device_copies.find(ctx.device);
  if (it != e.device_copies.end())
    return static_cast<const CudaDevDist*>(it->second);
  const std::size_t bytes = e.units.size() * sizeof(CudaDevDist);
  void* dev = sg::Malloc(ctx, bytes);
  sg::Memcpy(ctx, dev, e.units.data(), bytes);
  e.device_copies.emplace(ctx.device, dev);
  obs::count(rec_, "dev_cache.device_uploads");
  obs::count(rec_, "dev_cache.device_upload_bytes",
             static_cast<std::int64_t>(bytes));
  return static_cast<const CudaDevDist*>(dev);
}

void DevCache::evict_if_needed(sg::HostContext& ctx) {
  // The entries_.size() > 1 guard on the byte bound keeps the
  // just-inserted (most recent) entry resident even when it alone
  // exceeds max_bytes_ - evicting it would make the insert pointless.
  while (!lru_.empty() &&
         (entries_.size() > max_entries_ ||
          (max_bytes_ > 0 && bytes_ > max_bytes_ && entries_.size() > 1))) {
    const Key victim = lru_.back();
    lru_.pop_back();
    auto it = entries_.find(victim);
    if (it == entries_.end()) continue;
    for (auto& [dev, ptr] : it->second.entry->device_copies) {
      // Freeing is only valid from a context that can see the arena;
      // device pointers resolve globally through the machine registry.
      sg::Free(ctx, ptr);
    }
    const std::int64_t freed = entry_bytes(*it->second.entry);
    bytes_ -= freed;
    evictions_bytes_ += freed;
    entries_.erase(it);
    ++evictions_;
    obs::count(rec_, "dev_cache.evictions");
    obs::count(rec_, "dev_cache.evictions_bytes", freed);
    obs::count(rec_, "dev_cache.bytes", -freed);
  }
}

void DevCache::clear(sg::HostContext& ctx) {
  // Each copy goes back to the arena's free list, which is address-ordered
  // and coalescing.
  // det-lint: allow(unordered_iter) - the free order does not matter
  for (auto& [k, n] : entries_) {
    for (auto& [dev, ptr] : n.entry->device_copies) sg::Free(ctx, ptr);
  }
  entries_.clear();
  lru_.clear();
  obs::count(rec_, "dev_cache.bytes", -bytes_);
  bytes_ = 0;
}

std::vector<std::uint64_t> DevCache::lru_shape_digests() const {
  std::vector<std::uint64_t> out;
  out.reserve(lru_.size());
  for (const auto& k : lru_) out.push_back(k.shape);
  return out;
}

}  // namespace gpuddt::core

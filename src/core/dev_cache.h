// Cache of converted CUDA DEV arrays - Section 3.2.
//
// "As the CUDA DEV is tied to the data representation and is independent
// of the location of the source and destination buffers, it can be cached,
// either in the main or GPU memory, thereby minimizing the overheads of
// future pack/unpack operations."
//
// Keyed by (shape digest, count, unit size): the digest of the
// *canonical* datatype form (mpi/canonical.h), not the per-instance
// type_id - structurally equal types built through different constructor
// paths share one entry, so a many-type workload holds one DEV program
// per distinct shape instead of one per committed instance. Holds the
// host-side unit array and, lazily, a device-resident copy per device
// (so repeated pack/unpack skips both the conversion and the descriptor
// upload). Entries carry their LRU-list iterator, so a hit promotes in
// O(1) via std::list::splice instead of scanning the recency list.
// Dedup traffic is observable through the dev_cache.shape_dedup.*
// counters (docs/metrics.md).
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/dev.h"
#include "simgpu/runtime.h"

namespace gpuddt::obs {
class Recorder;
}

namespace gpuddt::core {

class DevCache {
 public:
  struct Entry {
    std::vector<CudaDevDist> units;
    std::int64_t total_bytes = 0;
    /// Device-resident copies of `units`, per device id.
    std::map<int, void*> device_copies;
    /// type_id of the instance that populated the entry; a find() or
    /// insert() from a *different* instance of the same shape is a
    /// shape-dedup event.
    std::uint64_t first_type_id = 0;
  };

  /// `max_bytes` bounds the summed descriptor footprint of the cached
  /// entries (units.size() * sizeof(CudaDevDist) each); 0 = unbounded.
  /// Entries of wildly different DEV-list sizes would otherwise share one
  /// entry-count budget.
  explicit DevCache(std::size_t max_entries = 64, std::int64_t max_bytes = 0)
      : max_entries_(max_entries), max_bytes_(max_bytes) {}

  void set_max_bytes(std::int64_t bytes) { max_bytes_ = bytes; }

  /// Mirror hit/miss/eviction/upload events into `rec` (nullable).
  void set_recorder(obs::Recorder* rec);

  /// Validate every inserted unit list against the datatype's bounds
  /// (check::validate_dev_list); throws check::InvariantViolation on a
  /// corrupt list. Off by default; the engine turns it on when its
  /// machine runs under the access checker.
  void set_validation(bool on) { validate_ = on; }

  /// Look up a converted array; nullptr on miss.
  const Entry* find(const mpi::DatatypePtr& dt, std::int64_t count,
                    std::int64_t unit_bytes) const;

  /// Insert a fully converted array (takes ownership). Returns the entry.
  /// `ctx` is used to free device copies of any evicted entry. A resident
  /// key keeps its entry when `units` equals its list and throws
  /// std::logic_error when it differs (a shape-digest collision).
  const Entry* insert(sg::HostContext& ctx, const mpi::DatatypePtr& dt,
                      std::int64_t count, std::int64_t unit_bytes,
                      std::vector<CudaDevDist> units);

  /// Device-resident copy of an entry's units, uploading on first use
  /// (costs one H2D transfer on `ctx`'s clock).
  const CudaDevDist* device_units(sg::HostContext& ctx, const Entry& entry);

  /// Free every entry's device copies; the entries stay, and re-upload
  /// on their next use. Call it while the machine is alive, before the
  /// cache's owner goes away.
  void free_device_copies(sg::HostContext& ctx);

  /// Free the device copies and drop every entry.
  void clear(sg::HostContext& ctx);

  std::size_t size() const { return entries_.size(); }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t evictions() const { return evictions_; }
  /// Current summed descriptor footprint of the resident entries.
  std::int64_t bytes() const { return bytes_; }

  /// Cache keys (shape digests) from most- to least-recently used
  /// (tests, introspection).
  std::vector<std::uint64_t> lru_shape_digests() const;

  /// The key hash (exposed for the collision-regression test): FNV-1a
  /// over all 24 key bytes. The previous `h * prime ^ hash(field)`
  /// mixing collapsed for common small-integer field values.
  static std::uint64_t key_hash(std::uint64_t shape, std::int64_t count,
                                std::int64_t unit_bytes);

 private:
  struct Key {
    std::uint64_t shape;  // Datatype::shape_digest()
    std::int64_t count;
    std::int64_t unit_bytes;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return static_cast<std::size_t>(
          key_hash(k.shape, k.count, k.unit_bytes));
    }
  };
  struct Node {
    std::unique_ptr<Entry> entry;
    std::list<Key>::iterator lru_it;  // position in lru_; stable across
                                      // rehash and splice
  };

  void evict_if_needed(sg::HostContext& ctx);
  void touch(const Node& n) const;

  static std::int64_t entry_bytes(const Entry& e) {
    return static_cast<std::int64_t>(e.units.size() * sizeof(CudaDevDist));
  }

  std::size_t max_entries_;
  std::int64_t max_bytes_ = 0;  // 0 = no byte bound
  std::int64_t bytes_ = 0;
  std::unordered_map<Key, Node, KeyHash> entries_;
  mutable std::list<Key> lru_;  // front = most recent
  mutable std::uint64_t hits_ = 0;
  mutable std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  obs::Recorder* rec_ = nullptr;
  bool validate_ = false;
};

}  // namespace gpuddt::core

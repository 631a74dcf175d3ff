// Shared utilities for the gpuddt test suite.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "mpi/cpu_pack.h"
#include "mpi/datatype.h"
#include "obs/recorder.h"
#include "simgpu/runtime.h"

namespace gpuddt::test {

/// A MachineConfig with every field spelled out (keeps
/// -Wmissing-field-initializers quiet at the designated-init call sites).
inline sg::MachineConfig machine_config(int devices,
                                        std::size_t bytes = 256u << 20) {
  sg::MachineConfig m;
  m.num_devices = devices;
  m.device_memory_bytes = bytes;
  return m;
}

/// Set or clear one environment variable for a scope; the destructor
/// restores whatever value (or absence) it had before.
class ScopedEnv {
 public:
  explicit ScopedEnv(const char* name) : name_(name) {
    const char* old = std::getenv(name);
    had_ = old != nullptr;
    if (had_) saved_ = old;
  }
  ~ScopedEnv() {
    if (had_)
      setenv(name_, saved_.c_str(), 1);
    else
      unsetenv(name_);
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

  void set(const char* v) { setenv(name_, v, 1); }
  void unset() { unsetenv(name_); }

 private:
  const char* name_;
  bool had_;
  std::string saved_;
};

/// Value of counter `name` in `rec` (0 when it was never recorded).
inline std::int64_t counter(const obs::Recorder& rec,
                            const std::string& name) {
  return rec.metrics().value(name);
}

/// Deterministically fill a byte region with position-dependent values.
inline void fill_pattern(void* p, std::size_t bytes, std::uint32_t seed) {
  auto* b = static_cast<std::uint8_t*>(p);
  for (std::size_t i = 0; i < bytes; ++i)
    b[i] = static_cast<std::uint8_t>((i * 2654435761u + seed) >> 13);
}

/// Reference pack of (dt, count) at `src` using the CPU datatype engine.
inline std::vector<std::byte> reference_pack(const mpi::DatatypePtr& dt,
                                             std::int64_t count,
                                             const void* src) {
  std::vector<std::byte> out(
      static_cast<std::size_t>(dt->size() * count));
  mpi::cpu_pack(dt, count, src, out);
  return out;
}

/// A particle: 3 doubles, an int32, a 4-byte hole, 3 doubles (extent 56).
/// Each element's [32, 56) run abuts the next element's [0, 28), so a
/// count > 1 carries a contiguous run across every element seam.
inline mpi::DatatypePtr particle_type() {
  const std::int64_t lens[] = {3, 1, 3};
  const std::int64_t displs[] = {0, 24, 32};
  const mpi::DatatypePtr types[] = {mpi::kDouble(), mpi::kInt32(),
                                    mpi::kDouble()};
  return mpi::Datatype::struct_type(lens, displs, types);
}

/// A random "interesting" datatype for property tests: nested mixes of
/// vector / indexed / contiguous / struct over the primitive set.
inline mpi::DatatypePtr random_datatype(std::mt19937& rng, int depth = 0) {
  using mpi::Datatype;
  std::uniform_int_distribution<int> kind_dist(0, depth >= 2 ? 1 : 5);
  std::uniform_int_distribution<int> small(1, 5);
  switch (kind_dist(rng)) {
    case 0: {  // primitive
      std::uniform_int_distribution<int> p(0, 5);
      return Datatype::primitive(static_cast<mpi::Primitive>(p(rng)));
    }
    case 1:
      return Datatype::contiguous(small(rng), random_datatype(rng, depth + 1));
    case 2: {
      const int bl = small(rng);
      const int stride = bl + small(rng) - 1;  // stride >= blocklen
      return Datatype::vector(small(rng), bl, stride,
                              random_datatype(rng, depth + 1));
    }
    case 3: {  // indexed with increasing displacements
      const int n = small(rng);
      std::vector<std::int64_t> lens, displs;
      std::int64_t at = 0;
      for (int i = 0; i < n; ++i) {
        const std::int64_t l = small(rng);
        lens.push_back(l);
        displs.push_back(at);
        at += l + small(rng);
      }
      return Datatype::indexed(lens, displs, random_datatype(rng, depth + 1));
    }
    case 4: {  // hvector with byte stride
      auto t = random_datatype(rng, depth + 1);
      const int bl = small(rng);
      const std::int64_t stride = bl * t->extent() + 8 * small(rng);
      return Datatype::hvector(small(rng), bl, stride, t);
    }
    default: {  // struct of two
      auto a = random_datatype(rng, depth + 1);
      auto b = random_datatype(rng, depth + 1);
      const std::int64_t la = small(rng), lb = small(rng);
      const std::int64_t db = la * a->extent() + 8 * small(rng);
      const std::int64_t lens[] = {la, lb};
      const std::int64_t displs[] = {0, db};
      const mpi::DatatypePtr types[] = {a, b};
      return Datatype::struct_type(lens, displs, types);
    }
  }
}

/// A random layout holding exactly `n` doubles: contiguous, a random
/// vector factorization, a random indexed partition with random gaps, or
/// transpose-like single-element columns.
inline mpi::DatatypePtr random_layout_of_n_doubles(std::mt19937& rng,
                                                   std::int64_t n) {
  using mpi::Datatype;
  std::uniform_int_distribution<int> kind(0, 3);
  switch (kind(rng)) {
    case 0:
      return Datatype::contiguous(n, mpi::kDouble());
    case 1: {  // vector factorization n = count * blocklen
      std::vector<std::int64_t> divisors;
      for (std::int64_t d = 1; d * d <= n; ++d)
        if (n % d == 0) {
          divisors.push_back(d);
          divisors.push_back(n / d);
        }
      std::uniform_int_distribution<std::size_t> pick(0, divisors.size() - 1);
      const std::int64_t bl = divisors[pick(rng)];
      const std::int64_t count = n / bl;
      std::uniform_int_distribution<std::int64_t> gap(0, 7);
      return Datatype::vector(count, bl, bl + gap(rng), mpi::kDouble());
    }
    case 2: {  // random partition with random gaps -> indexed
      std::vector<std::int64_t> lens, displs;
      std::int64_t left = n, at = 0;
      std::uniform_int_distribution<std::int64_t> blk(1, 37);
      std::uniform_int_distribution<std::int64_t> gap(0, 11);
      while (left > 0) {
        const std::int64_t l = std::min(blk(rng), left);
        lens.push_back(l);
        displs.push_back(at);
        at += l + gap(rng);
        left -= l;
      }
      return Datatype::indexed(lens, displs, mpi::kDouble());
    }
    default: {  // transpose-like: n single-element columns, strided
      std::uniform_int_distribution<std::int64_t> stride(2, 5);
      return Datatype::vector(n, 1, stride(rng), mpi::kDouble());
    }
  }
}

/// Buffer span (bytes) needed to hold `count` elements of dt, including a
/// little negative-lb headroom.
inline std::int64_t span_bytes(const mpi::DatatypePtr& dt,
                               std::int64_t count) {
  if (count <= 0 || dt->size() == 0) return 1;
  return dt->true_extent() + (count - 1) * dt->extent() + 64;
}

}  // namespace gpuddt::test

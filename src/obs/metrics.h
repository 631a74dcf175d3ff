// Metrics registry - named counters and histograms.
//
// The observability layer's quantitative half: every engine path, cache
// decision and protocol stage increments a named counter (or records a
// virtual-nanosecond latency into a histogram) so a benchmark run can
// report *where* bytes and time went, not just the end-to-end figure.
// References returned by Registry::counter()/histogram() stay valid for
// the registry's lifetime, so hot paths resolve names once and keep the
// pointer.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

namespace gpuddt::obs {

/// Monotonic counter.
class Counter {
 public:
  void add(std::int64_t delta) { v_ += delta; }
  void inc() { add(1); }
  std::int64_t value() const { return v_; }

 private:
  std::int64_t v_ = 0;
};

/// Log2-bucketed histogram of non-negative values (latencies in virtual
/// ns, sizes in bytes). Bucket i holds values in [2^(i-1), 2^i); bucket 0
/// holds zeros. Bounded memory regardless of sample count.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  struct Snapshot {
    std::int64_t count = 0;
    std::int64_t sum = 0;
    std::int64_t min = 0;
    std::int64_t max = 0;
    std::array<std::int64_t, kBuckets> buckets{};

    double mean() const {
      return count > 0 ? static_cast<double>(sum) / static_cast<double>(count)
                       : 0.0;
    }
    /// Approximate quantile (bucket upper bound), q in [0, 1].
    std::int64_t quantile(double q) const;
    /// Nearest-rank quantile (rank = clamp(ceil(q*count), 1, count), no
    /// interpolation; see nearest_rank below): the bucket upper bound of
    /// the rank-th smallest sample, clamped to [min, max]. Deterministic
    /// for any sample stream; 0 when the histogram is empty.
    std::int64_t quantile_nearest_rank(double q) const;
  };

  void record(std::int64_t value);
  Snapshot snapshot() const { return s_; }

 private:
  Snapshot s_;
};

/// The nearest-rank percentile index: the 1-based rank of the sample that
/// *is* quantile q over `count` sorted samples, clamp(ceil(q * count), 1,
/// count). Exact and deterministic - no interpolation between samples -
/// which is what lets latency reports (obs/flowstats.h) and histogram
/// percentiles gate byte-identically. Returns 0 when count <= 0.
std::int64_t nearest_rank(double q, std::int64_t count);

/// Name -> instrument map. Names are dot-separated paths
/// ("engine.pack.bytes.dev"); docs/metrics.md lists the stable set.
class Registry {
 public:
  Counter& counter(std::string_view name);
  Histogram& histogram(std::string_view name);

  /// Value of counter `name`, 0 when it was never recorded. Unlike
  /// counter(), never creates it, so reading leaves a dump unchanged.
  std::int64_t value(std::string_view name) const;

  std::map<std::string, std::int64_t> counters_snapshot() const;
  std::map<std::string, Histogram::Snapshot> histograms_snapshot() const;

  /// Drop every instrument (between benchmark repetitions).
  void clear();

 private:
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace gpuddt::obs

#include "obs/metrics.h"

#include <algorithm>
#include <bit>

namespace gpuddt::obs {

namespace {

std::size_t bucket_of(std::int64_t v) {
  if (v <= 0) return 0;
  return static_cast<std::size_t>(
      std::bit_width(static_cast<std::uint64_t>(v)));
}

}  // namespace

std::int64_t nearest_rank(double q, std::int64_t count) {
  if (count <= 0) return 0;
  const double scaled = q * static_cast<double>(count);
  auto rank = static_cast<std::int64_t>(scaled);
  if (static_cast<double>(rank) < scaled) ++rank;  // ceil
  return std::clamp<std::int64_t>(rank, 1, count);
}

std::int64_t Histogram::Snapshot::quantile_nearest_rank(double q) const {
  if (count == 0) return 0;
  const std::int64_t rank = nearest_rank(q, count);
  std::int64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += buckets[i];
    if (seen >= rank) {
      if (i == 0) return std::max<std::int64_t>(0, min);
      const std::int64_t hi = i >= 63 ? max : (std::int64_t{1} << i) - 1;
      return std::max(min, std::min(hi, max));
    }
  }
  return max;
}

std::int64_t Histogram::Snapshot::quantile(double q) const {
  if (count == 0) return 0;
  const auto target = static_cast<std::int64_t>(
      q * static_cast<double>(count - 1));
  std::int64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += buckets[i];
    if (seen > target) {
      if (i == 0) return 0;
      const std::int64_t hi = i >= 63 ? max : (std::int64_t{1} << i) - 1;
      return std::min(hi, max);
    }
  }
  return max;
}

void Histogram::record(std::int64_t value) {
  if (s_.count == 0) {
    s_.min = s_.max = value;
  } else {
    s_.min = std::min(s_.min, value);
    s_.max = std::max(s_.max, value);
  }
  ++s_.count;
  s_.sum += value;
  ++s_.buckets[bucket_of(value)];
}

Counter& Registry::counter(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

std::int64_t Registry::value(std::string_view name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->value();
}

Histogram& Registry::histogram(std::string_view name) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

std::map<std::string, std::int64_t> Registry::counters_snapshot() const {
  std::map<std::string, std::int64_t> out;
  for (const auto& [name, c] : counters_) out.emplace(name, c->value());
  return out;
}

std::map<std::string, Histogram::Snapshot> Registry::histograms_snapshot()
    const {
  std::map<std::string, Histogram::Snapshot> out;
  for (const auto& [name, h] : histograms_) out.emplace(name, h->snapshot());
  return out;
}

void Registry::clear() {
  counters_.clear();
  histograms_.clear();
}

}  // namespace gpuddt::obs

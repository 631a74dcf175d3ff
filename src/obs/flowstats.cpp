#include "obs/flowstats.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <limits>

#include "obs/canon.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace gpuddt::obs {

namespace {

// All fragments of one rendezvous send share frag_flow's upper 44 bits
// (rank, send id); collective flows live in the reserved all-ones rank
// slot and are already one id per operation (src/mpi/pml.h).
std::uint64_t logical_key(std::uint64_t flow) {
  if ((flow >> 40) == 0x1FFFull) return flow;
  return flow & ~0xFFFFFull;
}

// Same log2 rule as the histogram buckets (obs/metrics.cpp): bucket i
// holds values in [2^(i-1), 2^i), bucket 0 holds zeros.
std::size_t size_bucket(std::int64_t v) {
  if (v <= 0) return 0;
  return static_cast<std::size_t>(
      std::bit_width(static_cast<std::uint64_t>(v)));
}

std::int64_t bucket_upper_bound(std::int64_t v) {
  const std::size_t b = size_bucket(v);
  if (b == 0) return 0;
  if (b >= 63) return std::numeric_limits<std::int64_t>::max();
  return (std::int64_t{1} << b) - 1;
}

std::string class_key(const std::string& cls, std::uint64_t shape,
                      std::int64_t bytes) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "/%016llx/b%02zu",
                static_cast<unsigned long long>(shape), size_bucket(bytes));
  return cls + buf;
}

std::int64_t value_at_rank(const std::map<std::int64_t, std::int64_t>& values,
                           std::int64_t rank) {
  std::int64_t seen = 0;
  for (const auto& [v, c] : values) {
    seen += c;
    if (seen >= rank) return v;
  }
  return values.empty() ? 0 : values.rbegin()->first;
}

}  // namespace

const char* FlowStats::stage_name(int stage) {
  if (stage < 0 || stage >= kStageCount) return "none";
  return stage_key(static_cast<Stage>(stage));
}

void FlowStats::bump(const char* name, std::int64_t delta) {
  metrics_.counter(name).add(delta);
}

void FlowStats::retire_key(std::uint64_t key) {
  if (completed_keys_.insert(key).second) {
    completed_fifo_.push_back(key);
    if (completed_fifo_.size() > kMaxCompletedKeys) {
      completed_keys_.erase(completed_fifo_.front());
      completed_fifo_.pop_front();
    }
  }
}

FlowStats::Pending* FlowStats::open_flow(std::uint64_t key) {
  if (completed_keys_.count(key) != 0) {
    bump("flowstats.late_spans");
    return nullptr;
  }
  auto it = pending_.find(key);
  if (it != pending_.end()) return &it->second;
  if (pending_.size() >= kMaxPending) {
    bump("flowstats.dropped");
    return nullptr;
  }
  return &pending_[key];
}

void FlowStats::on_span(const TraceEvent& ev) {
  if (!enabled() || ev.flow == 0) return;
  Pending* found = open_flow(logical_key(ev.flow));
  if (found == nullptr) return;
  Pending& p = *found;
  const std::int64_t end = std::max(ev.begin, ev.end);
  p.min_begin = std::min(p.min_begin, ev.begin);
  p.max_end = std::max(p.max_end, end);
  auto& ivals = p.stages[static_cast<std::size_t>(ev.stage)];
  ivals.push_back(Interval{ev.begin, end});
  if (ivals.size() >= kMaxIntervals) {
    // Compact to the interval union; if the flow genuinely has more
    // disjoint intervals than the cap, merge the closest pair until it
    // fits - deterministic, and only ever *under*-counts wait.
    std::sort(ivals.begin(), ivals.end(),
              [](const Interval& a, const Interval& b) {
                return a.begin != b.begin ? a.begin < b.begin
                                          : a.end < b.end;
              });
    std::vector<Interval> merged;
    for (const Interval& iv : ivals) {
      if (!merged.empty() && iv.begin <= merged.back().end) {
        merged.back().end = std::max(merged.back().end, iv.end);
      } else {
        merged.push_back(iv);
      }
    }
    while (merged.size() >= kMaxIntervals) {
      std::size_t best = 0;
      std::int64_t best_gap = std::numeric_limits<std::int64_t>::max();
      for (std::size_t i = 0; i + 1 < merged.size(); ++i) {
        const std::int64_t gap = merged[i + 1].begin - merged[i].end;
        if (gap < best_gap) {
          best_gap = gap;
          best = i;
        }
      }
      merged[best].end = merged[best + 1].end;
      merged.erase(merged.begin() + static_cast<std::ptrdiff_t>(best) + 1);
    }
    ivals = std::move(merged);
  }
  bump("flowstats.spans");
}

void FlowStats::complete(const Completion& c) {
  if (!enabled() || c.flow == 0) return;
  const std::uint64_t key = logical_key(c.flow);
  Pending* found = open_flow(key);
  if (found == nullptr) return;
  Pending& p = *found;
  if (p.completions == 0) {
    p.cls = c.cls;
    p.shape = c.shape;
    p.participants = std::max(1, c.participants);
  }
  p.bytes += c.bytes;
  if (c.begin >= 0) {
    p.begin_override =
        p.begin_override < 0 ? c.begin : std::min(p.begin_override, c.begin);
  }
  if (c.end >= 0) p.end_override = std::max(p.end_override, c.end);
  ++p.completions;
  if (p.completions >= p.participants) {
    finalize(key, p);
    pending_.erase(key);
  }
}

void FlowStats::finalize(std::uint64_t key, Pending& p) {
  retire_key(key);
  std::int64_t begin = p.begin_override;
  std::int64_t end = p.end_override;
  if (p.min_begin != std::numeric_limits<std::int64_t>::max()) {
    begin = begin < 0 ? p.min_begin : std::min(begin, p.min_begin);
    end = std::max(end, p.max_end);
  }
  if (begin < 0 || end < begin) {
    // No usable window (completion without times and without any span):
    // count it dropped rather than invent a latency.
    bump("flowstats.dropped");
    return;
  }
  const std::int64_t e2e = end - begin;

  ClassAcc& acc = classes_[class_key(p.cls, p.shape, p.bytes)];
  ++acc.count;
  acc.bytes += p.bytes;
  auto vit = acc.values.find(e2e);
  if (vit != acc.values.end()) {
    ++vit->second;
  } else if (acc.values.size() < kMaxDistinctValues) {
    acc.values.emplace(e2e, 1);
  } else {
    // Distinct-value cap: coarsen *new* values to their log2 bucket upper
    // bound (at most 64 extra keys), never silently discard the sample.
    ++acc.values[bucket_upper_bound(e2e)];
    bump("flowstats.capped");
  }

  TailFlow tf{e2e, next_seq_++, {}};
  for (std::size_t s = 0; s < static_cast<std::size_t>(kStageCount); ++s) {
    auto& ivals = p.stages[s];
    if (ivals.empty()) continue;
    std::sort(ivals.begin(), ivals.end(),
              [](const Interval& a, const Interval& b) {
                return a.begin != b.begin ? a.begin < b.begin
                                          : a.end < b.end;
              });
    std::int64_t work = 0;
    std::int64_t cur_begin = ivals.front().begin;
    std::int64_t cur_end = ivals.front().end;
    for (std::size_t i = 1; i < ivals.size(); ++i) {
      if (ivals[i].begin <= cur_end) {
        cur_end = std::max(cur_end, ivals[i].end);
      } else {
        work += cur_end - cur_begin;
        cur_begin = ivals[i].begin;
        cur_end = ivals[i].end;
      }
    }
    work += cur_end - cur_begin;
    ++acc.stage_flows[s];
    acc.work[s] += work;
    acc.wait[s] += std::max<std::int64_t>(0, e2e - work);
    tf.work[s] = work;
  }
  acc.tail.push_back(tf);
  std::sort(acc.tail.begin(), acc.tail.end(),
            [](const TailFlow& a, const TailFlow& b) {
              return a.e2e != b.e2e ? a.e2e > b.e2e : a.seq < b.seq;
            });
  if (acc.tail.size() > kTailFlows) acc.tail.resize(kTailFlows);

  bump("flowstats.flows");
  metrics_.histogram("latency.e2e_ns").record(e2e);
}

void FlowStats::drop(std::uint64_t key) {
  retire_key(key);
  bump("flowstats.dropped");
}

void FlowStats::drop_unidentified() {
  if (!enabled()) return;
  bump("flowstats.dropped");
}

// Send ids restart with the new Runtime, so open flows and retired keys
// from the old generation must not shadow fresh flows reusing the same
// bits: both fences drop and forget the same state.
void FlowStats::begin_generation() { end_generation(); }

void FlowStats::end_generation() {
  if (!enabled()) return;
  for (const auto& entry : pending_) drop(entry.first);
  pending_.clear();
  completed_keys_.clear();
  completed_fifo_.clear();
}

FlowStats::Report FlowStats::report() const {
  Report r;
  r.spans = metrics_.value("flowstats.spans");
  r.flows = metrics_.value("flowstats.flows");
  r.dropped = metrics_.value("flowstats.dropped");
  r.late_spans = metrics_.value("flowstats.late_spans");
  r.capped = metrics_.value("flowstats.capped");
  for (const auto& [key, acc] : classes_) {
    ClassReport cr;
    cr.count = acc.count;
    cr.bytes = acc.bytes;
    cr.work = acc.work;
    cr.wait = acc.wait;
    cr.stage_flows = acc.stage_flows;
    std::int64_t n = 0;
    for (const auto& [v, c] : acc.values) n += c;
    if (n > 0) {
      cr.p50 = value_at_rank(acc.values, nearest_rank(0.50, n));
      cr.p99 = value_at_rank(acc.values, nearest_rank(0.99, n));
      cr.p999 = value_at_rank(acc.values, nearest_rank(0.999, n));
      cr.max = acc.values.rbegin()->first;
    }
    cr.tail_threshold = cr.p99;
    for (auto vit = acc.values.lower_bound(cr.tail_threshold);
         vit != acc.values.end(); ++vit) {
      cr.tail_count += vit->second;
    }
    for (const TailFlow& tf : acc.tail) {
      if (tf.e2e < cr.tail_threshold) continue;
      for (std::size_t s = 0; s < static_cast<std::size_t>(kStageCount); ++s) {
        cr.tail_work[s] += tf.work[s];
      }
    }
    std::int64_t best = 0;
    for (std::size_t s = 0; s < static_cast<std::size_t>(kStageCount); ++s) {
      if (cr.tail_work[s] > best) {
        best = cr.tail_work[s];
        cr.tail_dominant = static_cast<int>(s);
      }
    }
    r.classes.emplace(key, cr);
  }
  return r;
}

std::string FlowStats::to_json() const {
  const Report r = report();
  auto num = [](std::int64_t v) {
    return json::Value(static_cast<double>(v));
  };
  json::Object flowstats;
  flowstats.emplace("capped", num(r.capped));
  flowstats.emplace("dropped", num(r.dropped));
  flowstats.emplace("flows", num(r.flows));
  flowstats.emplace("late_spans", num(r.late_spans));
  flowstats.emplace("spans", num(r.spans));

  json::Object classes;
  for (const auto& [key, cr] : r.classes) {
    json::Object e2e;
    e2e.emplace("max", num(cr.max));
    e2e.emplace("p50", num(cr.p50));
    e2e.emplace("p99", num(cr.p99));
    e2e.emplace("p999", num(cr.p999));

    json::Object stages;
    for (std::size_t s = 0; s < static_cast<std::size_t>(kStageCount); ++s) {
      if (cr.stage_flows[s] == 0) continue;
      json::Object st;
      st.emplace("flows", num(cr.stage_flows[s]));
      st.emplace("wait", num(cr.wait[s]));
      st.emplace("work", num(cr.work[s]));
      stages.emplace(stage_name(static_cast<int>(s)), json::Value(st));
    }

    json::Object tail_work;
    for (std::size_t s = 0; s < static_cast<std::size_t>(kStageCount); ++s) {
      if (cr.tail_work[s] == 0) continue;
      tail_work.emplace(stage_name(static_cast<int>(s)),
                        num(cr.tail_work[s]));
    }
    json::Object tail;
    tail.emplace("count", num(cr.tail_count));
    tail.emplace("dominant",
                 json::Value(std::string(stage_name(cr.tail_dominant))));
    tail.emplace("threshold", num(cr.tail_threshold));
    tail.emplace("work", json::Value(std::move(tail_work)));

    json::Object cls;
    cls.emplace("bytes", num(cr.bytes));
    cls.emplace("count", num(cr.count));
    cls.emplace("e2e", json::Value(std::move(e2e)));
    cls.emplace("stages", json::Value(std::move(stages)));
    cls.emplace("tail", json::Value(std::move(tail)));
    classes.emplace(key, json::Value(std::move(cls)));
  }

  json::Object doc;
  doc.emplace("schema", json::Value(std::string("gpuddt-latency-v1")));
  doc.emplace("flowstats", json::Value(std::move(flowstats)));
  doc.emplace("classes", json::Value(std::move(classes)));
  return canonical_latency(json::Value(std::move(doc)));
}

void FlowStats::clear() {
  pending_.clear();
  completed_keys_.clear();
  completed_fifo_.clear();
  classes_.clear();
  next_seq_ = 0;
}

}  // namespace gpuddt::obs

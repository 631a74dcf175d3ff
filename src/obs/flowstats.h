// Streaming per-flow latency analytics.
//
// The metrics registry answers "how much" (counters, log2 histograms) and
// the trace buffer answers "when exactly" (bounded event capture) - but
// neither can say what the p99 user of a given operation class actually
// experienced, or which pipeline stage made the slow flows slow. FlowStats
// closes that gap: it consumes the same flow-stamped spans the Chrome
// exporter renders (obs::trace feeds it before the TraceBuffer, so it
// works with tracing disabled or truncated), groups them by *logical*
// flow (all fragments of one rendezvous send, all member spans of one
// collective), and on completion folds each flow's end-to-end latency and
// per-stage work/wait split into bounded-memory per-class accumulators.
//
// A flow class is (operation kind, DDT shape digest, payload size
// bucket): "send/91ab.../b21" is "2 MB rendezvous sends of this vector
// shape". Per class it keeps an exact value->count latency map (capped;
// overflow coarsens new values to their log2 bucket bound and counts
// flowstats.capped), so p50/p99/p999/max are deterministic nearest-rank
// statistics - no interpolation, no sampling jitter - plus the summed
// per-stage work/wait and the slowest flows' stage breakdown for tail
// attribution (docs/latency.md).
//
// Everything is virtual-clock driven and single-pass, so two runs of a
// deterministic benchmark serialize byte-identical gpuddt-latency-v1
// reports (the traffic-mix baseline gates exactly that).
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace gpuddt::obs {

class Registry;

class FlowStats {
 public:
  /// Per-stage arrays below are indexed by obs::Stage (pipeline order;
  /// kOther absorbs layer op spans). Ties in tail attribution resolve to
  /// the earliest stage. stage_name is the stage's latency-report key
  /// (stage_key), "none" out of range.
  static const char* stage_name(int stage);

  /// The flowstats.* counts live in `metrics` only: report() reads them
  /// back from there, and Recorder::clear() clears them with it.
  explicit FlowStats(Registry& metrics) : metrics_(metrics) {}

  /// Off by default: with flowstats disabled the hot obs::trace path pays
  /// one flag test, and no latency.* / flowstats.* instruments ever
  /// appear in the metrics registry (keeping historic baselines intact).
  bool enabled() const { return enabled_; }
  void enable(bool on = true) { enabled_ = on; }

  /// Fold one flow-stamped span into its logical flow's pending record.
  /// Ignores flow-less events; spans for already-finalized flows count as
  /// flowstats.late_spans and are never folded into percentiles.
  void on_span(const TraceEvent& ev);

  /// One layer-level completion of a logical flow. Single-participant
  /// flows (p2p sends, RMA ops, SHMEM datatype ops, standalone
  /// pack/unpack) finalize immediately; collective flows finalize when
  /// all `participants` ranks have completed, with the end-to-end window
  /// spanning the earliest begin to the latest end.
  struct Completion {
    std::uint64_t flow = 0;   // any fragment/member flow id of the flow
    std::string cls;          // operation kind ("send", "coll.bcast", ...)
    std::uint64_t shape = 0;  // DDT shape digest (0: no datatype involved)
    std::int64_t bytes = 0;   // payload bytes this completion contributes
    std::int64_t begin = -1;  // virtual ns; -1: derive from spans
    std::int64_t end = -1;    // virtual ns; -1: derive from spans
    int participants = 1;     // completions required to finalize
  };
  void complete(const Completion& c);

  /// Count one completion that never had a flow id (eager sends complete
  /// with flow 0, so there is nothing to assemble) in flowstats.dropped -
  /// the report's totals still account for every operation.
  void drop_unidentified();

  /// Flow-id generation fences. Send ids (and collective epochs) restart
  /// when a Runtime is constructed, so a bench binary running several
  /// Runtimes back-to-back would alias old and new flow ids; the Runtime
  /// brackets its lifetime with these. end_generation() drops every
  /// still-open flow into flowstats.dropped - a truncated run is never
  /// silently folded into percentiles.
  void begin_generation();
  void end_generation();

  /// Deterministic per-class statistics, exact nearest-rank percentiles.
  struct ClassReport {
    std::int64_t count = 0;  // finalized flows
    std::int64_t bytes = 0;  // payload bytes across those flows
    std::int64_t p50 = 0;
    std::int64_t p99 = 0;
    std::int64_t p999 = 0;
    std::int64_t max = 0;
    std::array<std::int64_t, kStageCount> work{};  // interval-union busy ns
    std::array<std::int64_t, kStageCount> wait{};  // window minus work
    std::array<std::int64_t, kStageCount> stage_flows{};  // flows with spans
    std::int64_t tail_threshold = 0;  // nearest-rank p99
    std::int64_t tail_count = 0;      // flows with e2e >= threshold
    int tail_dominant = -1;           // stage index; -1: no stage data
    std::array<std::int64_t, kStageCount> tail_work{};  // over tracked tail
  };
  struct Report {
    std::int64_t spans = 0;
    std::int64_t flows = 0;
    std::int64_t dropped = 0;
    std::int64_t late_spans = 0;
    std::int64_t capped = 0;
    std::map<std::string, ClassReport> classes;
  };
  Report report() const;

  /// The report as a canonical gpuddt-latency-v1 document - built through
  /// canonical_latency (obs/canon.h), so serialize/parse/canonicalize is
  /// byte-idempotent by construction (docs/latency.md has the schema).
  std::string to_json() const;

  /// Drop all state, including per-class accumulators (between benchmark
  /// repetitions); the flowstats.* counters go with the registry's
  /// clear(). Leaves the enabled flag untouched.
  void clear();

 private:
  struct Interval {
    std::int64_t begin;
    std::int64_t end;
  };
  struct Pending {
    std::int64_t min_begin = std::numeric_limits<std::int64_t>::max();
    std::int64_t max_end = std::numeric_limits<std::int64_t>::min();
    std::array<std::vector<Interval>, kStageCount> stages;
    std::string cls;
    std::uint64_t shape = 0;
    std::int64_t bytes = 0;
    std::int64_t begin_override = -1;
    std::int64_t end_override = -1;
    int completions = 0;
    int participants = 1;
  };
  struct TailFlow {
    std::int64_t e2e;
    std::uint64_t seq;  // finalization order, breaks e2e ties
    std::array<std::int64_t, kStageCount> work;
  };
  struct ClassAcc {
    std::int64_t count = 0;
    std::int64_t bytes = 0;
    std::map<std::int64_t, std::int64_t> values;  // e2e ns -> flow count
    std::array<std::int64_t, kStageCount> work{};
    std::array<std::int64_t, kStageCount> wait{};
    std::array<std::int64_t, kStageCount> stage_flows{};
    std::vector<TailFlow> tail;  // slowest kTailFlows, e2e desc / seq asc
  };

  static constexpr std::size_t kMaxPending = 1 << 16;
  static constexpr std::size_t kMaxCompletedKeys = 1 << 12;
  static constexpr std::size_t kMaxIntervals = 512;
  static constexpr std::size_t kMaxDistinctValues = 1024;
  static constexpr std::size_t kTailFlows = 32;

  /// The pending record of logical flow `key`, opened on first use;
  /// nullptr (counted late or dropped) when the flow already finalized
  /// or the pending table is full.
  Pending* open_flow(std::uint64_t key);
  void finalize(std::uint64_t key, Pending& p);
  void drop(std::uint64_t key);
  void retire_key(std::uint64_t key);
  void bump(const char* name, std::int64_t delta = 1);

  Registry& metrics_;
  bool enabled_ = false;
  std::map<std::uint64_t, Pending> pending_;
  std::set<std::uint64_t> completed_keys_;
  std::deque<std::uint64_t> completed_fifo_;
  std::map<std::string, ClassAcc> classes_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace gpuddt::obs

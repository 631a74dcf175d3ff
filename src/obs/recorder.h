// Recorder - the observability layer's front door.
//
// Bundles a metrics Registry, a TraceBuffer and the run's check/verify
// findings. The metrics and findings serialize as one JSON document
// (schema: docs/metrics.md, `gpuddt-metrics-v1`); the trace buffer
// serializes only as a Chrome Trace Event Format array (to_chrome_json,
// docs/tracing.md). Producers (the GPU datatype
// engine, the DEV cache, the PML, the GPU transfer plugin) take a
// nullable Recorder* and record nothing when it is null, so unit tests
// attach private recorders and production paths pay one branch when
// observability is off. Findings are the exception: obs::report sends
// them to default_recorder() when the producer has no recorder, so no
// finding is ever dropped.
//
// The process-global default_recorder() is what the harness attaches to
// runs that did not bring their own, and what the bench binaries dump
// with --metrics-out=FILE and gate on (any finding fails the run).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/diagnostics.h"
#include "obs/flowstats.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace gpuddt::obs {

class Recorder {
 public:
  Recorder() = default;
  // flowstats_ refers to metrics_, so a copy would count into the source.
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  Registry& metrics() { return metrics_; }
  const Registry& metrics() const { return metrics_; }
  TraceBuffer& trace() { return trace_; }
  const TraceBuffer& trace() const { return trace_; }
  FlowStats& flowstats() { return flowstats_; }
  const FlowStats& flowstats() const { return flowstats_; }

  void enable_tracing(bool on = true) { trace_.enable(on); }
  bool tracing() const { return trace_.enabled(); }

  /// Stored-finding cap: a hazard storm cannot exhaust memory, and the
  /// producers' counters (check.hazards, verify.*) stay exact past it.
  static constexpr std::size_t kMaxDiagnostics = 1024;

  /// Record one check or verify finding: echoed to stderr while fewer
  /// than 50 are stored, stored while fewer than kMaxDiagnostics.
  void report(Diagnostic d);
  const std::vector<Diagnostic>& diagnostics() const { return diagnostics_; }

  /// Serialize counters, histograms and findings as one JSON document.
  std::string to_json() const;

  /// to_json() into `path`; returns false on I/O failure.
  bool write_json(const std::string& path) const;

  /// Serialize the trace buffer as a Chrome Trace Event Format JSON
  /// array (chrome_trace_json, docs/tracing.md). Counters/histograms are
  /// not part of this view - pair with write_json for the quantitative
  /// half.
  std::string to_chrome_json() const {
    return chrome_trace_json(trace_.snapshot(), trace_.dropped());
  }

  /// to_chrome_json() into `path`; returns false on I/O failure.
  bool write_chrome_json(const std::string& path) const;

  /// Serialize the per-flow latency engine as a canonical
  /// gpuddt-latency-v1 report (obs/flowstats.h, docs/latency.md). Empty
  /// but valid when flowstats was never enabled.
  std::string latency_json() const { return flowstats_.to_json(); }

  /// latency_json() into `path`; returns false on I/O failure.
  bool write_latency_json(const std::string& path) const;

  /// Drop all recorded data (between benchmark repetitions).
  void clear() {
    metrics_.clear();
    trace_.clear();
    flowstats_.clear();
    diagnostics_.clear();
  }

 private:
  Registry metrics_;
  TraceBuffer trace_;
  FlowStats flowstats_{metrics_};
  std::vector<Diagnostic> diagnostics_;
};

/// Process-wide recorder used whenever a run does not provide its own.
Recorder& default_recorder();

/// Record a finding into `rec`, or into default_recorder() when `rec` is
/// null - the fallback the harness applies to runs without a recorder.
inline void report(Recorder* rec, Diagnostic d) {
  (rec != nullptr ? *rec : default_recorder()).report(std::move(d));
}

/// Shorthand for guarded recording at instrumentation sites.
inline void count(Recorder* rec, std::string_view name,
                  std::int64_t delta = 1) {
  if (rec != nullptr) rec->metrics().counter(name).add(delta);
}
inline void observe(Recorder* rec, std::string_view name,
                    std::int64_t value) {
  if (rec != nullptr) rec->metrics().histogram(name).record(value);
}
inline void trace(Recorder* rec, TraceEvent ev) {
  if (rec == nullptr) return;
  // The latency engine taps the span stream *before* the bounded trace
  // buffer, so per-flow percentiles stay complete even when tracing is
  // off (record() below no-ops) or the buffer truncates.
  if (rec->flowstats().enabled()) rec->flowstats().on_span(ev);
  rec->trace().record(std::move(ev));
}

/// One call of a layer operation on one rank: a collective, an RMA op or
/// a SHMEM op.
struct LayerOp {
  const char* family;       // "coll", "rma", "shmem"
  const char* op;           // "bcast", "put", "get_datatype", ...
  std::int64_t begin;       // virtual ns
  std::int64_t end;         // virtual ns
  int rank;
  std::int64_t bytes;
  std::uint64_t flow = 0;   // 0: not part of a flow
  std::uint64_t shape = 0;  // DDT shape digest of the flow class
  int participants = 1;     // completions that finalize the flow
};

/// The layers' shared recording policy: count `<family>.<op>.calls` and
/// `<family>.<op>.bytes`, emit one span {op, family, begin, end, rank,
/// bytes, rank, flow}, then - for a flow while FlowStats is on - complete
/// the flow with class `<family>.<op>`. The span comes first because
/// FlowStats folds a flow's spans before it finalizes the flow. Each
/// layer counts its own byte splits (docs/metrics.md).
void record_layer_op(Recorder& rec, const LayerOp& op);

}  // namespace gpuddt::obs

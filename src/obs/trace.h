// Trace events on the virtual clock.
//
// The observability layer's qualitative half: when tracing is enabled,
// instrumented stages (DEV conversion chunks, descriptor uploads, kernel
// launches, pipeline fragments) append one interval event each, stamped
// with virtual begin/end times. Because every producer already carries a
// virtual clock, the collected events replay as an exact timeline of one
// pack op or one pipelined transfer - the same evidence Figure 5 of the
// paper sketches by hand.
//
// Each producer sets its span's pipeline stage in the event's `stage`
// field, which the chrome rows, FlowStats and --profile read. The chrome
// array (chrome_trace_json) is the one serialized trace format.
//
// Disabled tracing is a single flag test per call site; the buffer is
// bounded so runaway benchmarks cannot exhaust memory.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace gpuddt::obs {

/// The pipeline stages of one transfer (§3.2/§4.1) in pipeline order, and
/// kOther for spans outside it.
enum class Stage : std::uint8_t {
  kConv,    // engine/convert_chunk: host conversion of DEV units
  kDesc,    // engine/desc_upload: descriptor uploads
  kKernel,  // engine/dev_kernel, engine/vector_kernel
  kWire,    // pml/frag: rendezvous fragments on the link
  kRdma,    // gpu/rdma_frag: RDMA fragments, announce to unpack
  kUnpack,  // gpu/host_frag_unpack: host-staged fragment unpacks
  kOther,
};
inline constexpr int kStageCount = static_cast<int>(Stage::kOther) + 1;

struct TraceEvent {
  std::string name;       // span name ("convert_chunk", "frag", ...)
  std::string cat;        // subsystem ("engine", "pml", ...)
  std::int64_t begin = 0; // virtual ns
  std::int64_t end = 0;   // virtual ns
  std::int32_t tid = -1;  // rank (pml events) or device (engine events)
  std::int64_t arg0 = 0;  // stage-specific (bytes, unit count, frag index)
  std::int32_t pid = -1;  // owning rank when known (-1: fall back to tid)
  std::uint64_t flow = 0; // fragment flow id (0: not part of a flow)
  Stage stage = Stage::kOther;  // set by the producer
};

class TraceBuffer {
 public:
  explicit TraceBuffer(std::size_t max_events = 1 << 20)
      : max_events_(max_events) {}

  bool enabled() const { return enabled_; }
  void enable(bool on = true) { enabled_ = on; }

  /// Append one event; no-op when disabled or full. `dropped()` reports
  /// how many events the cap swallowed, so a truncated trace is never
  /// mistaken for a complete one.
  void record(TraceEvent ev);

  std::vector<TraceEvent> snapshot() const { return events_; }
  std::int64_t dropped() const { return dropped_; }
  void clear() {
    events_.clear();
    dropped_ = 0;
  }

 private:
  const std::size_t max_events_;
  bool enabled_ = false;
  std::int64_t dropped_ = 0;
  std::vector<TraceEvent> events_;
};

/// Serialize trace events as a Chrome Trace Event Format JSON array
/// (docs/tracing.md) that loads directly in chrome://tracing or Perfetto:
/// one `ph:"X"` complete event per TraceEvent with `ts`/`dur` in
/// microseconds of virtual time (fractional, so the nanosecond clock is
/// preserved), the owning rank as `pid`, and protocol stages (conv,
/// H2D desc, kernel, wire, RDMA GET, unpack, ...) as named `tid` rows.
/// Events are sorted by begin time, so `ts` is monotone non-decreasing.
/// When `dropped > 0` a final instant event flags the truncation.
///
/// Events carrying the same non-zero `flow` id form one fragment flow:
/// each gets `args.flow`, and the chain is tied together with Chrome
/// flow events (`ph:"s"` on the first span, `ph:"t"` on middle spans,
/// `ph:"f"` with `bp:"e"` on the last), so Perfetto draws dependency
/// arrows conv -> H2D desc -> kernel -> wire/RDMA GET -> unpack across
/// ranks. Flows with a single member emit no flow events.
std::string chrome_trace_json(std::vector<TraceEvent> events,
                              std::int64_t dropped);

/// A stage's key in the latency report (docs/latency.md): "conv",
/// "desc", "kernel", "wire", "rdma", "unpack", "other".
const char* stage_key(Stage s);

/// Human-readable per-(rank, stage-row) utilization table over a trace
/// snapshot: busy virtual ns, % of the trace's end-to-end span, and
/// event count, sorted by rank then pipeline-row order. Returns "" when
/// there are no events. Backs the bench binaries' `--profile` flag.
std::string stage_profile_table(const std::vector<TraceEvent>& events);

}  // namespace gpuddt::obs

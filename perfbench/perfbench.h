// Shared pieces of the repository benchmark (perfbench/README.md).
//
// A workload runs as a sequence of identical *episodes*: each builds its
// world from the seed (the timed set-up), runs a fixed number of steps and
// tears the world down. The runner (main.cpp) repeats episodes until the
// requested host time is spent. Because every episode of one seed replays
// the same inputs, its virtual-time results must repeat bit for bit; the
// runner checks that and counts a mismatch as a failure.
//
// Host time is read only here, with std::chrono::steady_clock. The
// simulator libraries are touched only through their public headers.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <random>
#include <vector>

#include "vtime/vclock.h"

namespace gpuddt::perfbench {

/// Host clock, in nanoseconds.
inline std::int64_t host_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- Outside-in tracing ------------------------------------------------------

/// The layers the benchmark times, each at the public entry points it
/// calls (README.md, "Per-layer metrics"). kCheck is the benchmark's own
/// output checking, kept apart so it never inflates a layer.
enum class Layer : std::uint8_t {
  kDatatype,
  kCursor,
  kCpuPack,
  kDev,
  kEngine,
  kDevCache,
  kSimgpu,
  kProtocols,
  kPml,
  kColl,
  kRma,
  kCheck,
  kCount,
};
constexpr int kLayers = static_cast<int>(Layer::kCount);

const char* layer_name(Layer l);

/// Trace context of code outside every rank body (world construction and
/// teardown, and the step loop of single-rank workloads).
constexpr std::int32_t kMainCtx = -1;

/// One span boundary or context mark, in emission order.
struct TraceEvent {
  enum class Kind : std::uint8_t { kBegin, kEnd, kMark };
  std::int64_t host_ns = 0;
  std::int64_t bytes = 0;  // kEnd: bytes the call moved
  vt::Time vt = 0;         // caller's virtual clock, when it has one
  std::int32_t ctx = kMainCtx;
  Layer layer = Layer::kCount;
  Kind kind = Kind::kMark;
  bool failed = false;     // kEnd: the call threw
};

/// In-memory span log of one traced episode.
struct Tracer {
  std::vector<TraceEvent> events;
};

/// The tracer of the running episode; null when the episode is untraced,
/// which makes every Span and mark a single branch.
extern Tracer* g_tracer;

/// Attribute the host time from here on to `ctx` (a rank body resuming,
/// or control returning to the main context).
inline void mark(std::int32_t ctx) {
  if (g_tracer == nullptr) return;
  TraceEvent e;
  e.host_ns = host_ns();
  e.ctx = ctx;
  g_tracer->events.push_back(e);
}

/// Scoped span around one call into a layer. `clock`, when given, is the
/// caller's virtual clock; the span then also records virtual time.
class Span {
 public:
  Span(Layer layer, std::int32_t ctx, const vt::VClock* clock = nullptr)
      : layer_(layer), ctx_(ctx), clock_(clock) {
    if (g_tracer == nullptr) return;
    on_ = true;
    uncaught_ = std::uncaught_exceptions();
    push(TraceEvent::Kind::kBegin, false);
  }
  ~Span() {
    if (on_ && g_tracer != nullptr)
      push(TraceEvent::Kind::kEnd, std::uncaught_exceptions() > uncaught_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void add_bytes(std::int64_t b) { bytes_ += b; }

 private:
  void push(TraceEvent::Kind kind, bool failed) {
    TraceEvent e;
    e.host_ns = host_ns();
    e.bytes = kind == TraceEvent::Kind::kEnd ? bytes_ : 0;
    e.vt = clock_ != nullptr ? clock_->now() : 0;
    e.ctx = ctx_;
    e.layer = layer_;
    e.kind = kind;
    e.failed = failed;
    g_tracer->events.push_back(e);
  }

  Layer layer_;
  std::int32_t ctx_;
  const vt::VClock* clock_;
  std::int64_t bytes_ = 0;
  int uncaught_ = 0;
  bool on_ = false;
};

/// Scoped host timer for benchmark-side work (input generation, output
/// checks, probes) that must not count as the system's time: adds its
/// duration to `*sink`.
class Excluded {
 public:
  explicit Excluded(std::int64_t* sink) : sink_(sink), t0_(host_ns()) {}
  ~Excluded() { *sink_ += host_ns() - t0_; }
  Excluded(const Excluded&) = delete;
  Excluded& operator=(const Excluded&) = delete;

 private:
  std::int64_t* sink_;
  std::int64_t t0_;
};

// --- Episodes ----------------------------------------------------------------

struct EpisodeConfig {
  std::uint64_t seed = 0;
  /// Attach an obs::Recorder (counters only, as every bench does).
  bool attach_recorder = true;
  /// Record spans into g_tracer, install the protocol timing decorator
  /// and run the per-layer probes.
  bool traced = false;
};

/// What one episode measured.
struct Episode {
  double setup_s = 0;                  // host, benchmark work excluded
  std::vector<double> step_us;         // host per step, benchmark excluded
  std::vector<vt::Time> xfer_ns;       // modelled latency per transfer
  vt::Time makespan_ns = 0;            // modelled measured-phase length
  std::int64_t attempted = 0;          // checked operations
  std::int64_t failed = 0;             // checks that failed
  // core.dev_cache accessor reads at the end of the episode, summed
  // over every engine the workload drives.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  // Probe outputs (traced episodes only).
  std::int64_t cursor_pieces = 0;
  std::int64_t dev_units = 0;
};

Episode run_engine_pack(const EpisodeConfig& cfg);
Episode run_host_ring(const EpisodeConfig& cfg);
Episode run_gpu_mix(const EpisodeConfig& cfg);

// --- Inputs ------------------------------------------------------------------

/// Seeded generator: the same (seed, stream) always yields the same draws.
inline std::mt19937_64 make_rng(std::uint64_t seed, std::uint64_t stream) {
  return std::mt19937_64(seed * 0x9E3779B97F4A7C15ull + stream);
}

/// Uniform draw from [lo, hi].
inline std::int64_t draw(std::mt19937_64& rng, std::int64_t lo,
                         std::int64_t hi) {
  return lo + static_cast<std::int64_t>(
                  rng() % static_cast<std::uint64_t>(hi - lo + 1));
}

/// A balanced deck: `reps` passes, each a seeded permutation of
/// [0, kinds). Drawing steps from a deck instead of independently keeps
/// every pass's mix exact, so seeds differ in order and jitter only.
std::vector<int> balanced_deck(std::mt19937_64& rng, int kinds, int reps);

/// Order of size class `base`, jittered by the seed within +1%. Even, so
/// n/2-column sub-matrices stay exact.
inline std::int64_t jittered_order(std::mt19937_64& rng, std::int64_t base) {
  return base + 2 * draw(rng, 0, base / 256);
}

/// Benchmark-side buffer, allocated without initialisation so that set-up
/// time does not depend on whether the allocator hands back fresh or
/// recycled pages. Callers first touch it inside an Excluded scope.
template <typename T = std::byte>
std::unique_ptr<T[]> make_buffer(std::size_t n) {
  return std::make_unique_for_overwrite<T[]>(n);
}

/// Fill `n` bytes with the seeded pseudo-random pattern `key`.
void fill_pattern(std::byte* p, std::size_t n, std::uint64_t key);

}  // namespace gpuddt::perfbench

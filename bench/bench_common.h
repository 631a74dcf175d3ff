// Shared setup for the figure-reproduction benchmarks.
//
// All benchmarks report *virtual* time from the calibrated machine model
// (benchmark::State::SetIterationTime with manual timing), so results are
// deterministic and hardware-independent. Counters expose the payload
// bandwidth the paper's figures plot. bench_main checks each figure's
// paper claims after the run and fails a run whose recorder holds a
// check or verify finding.
#pragma once

#include <benchmark/benchmark.h>
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/mvapich_plugin.h"
#include "check/config.h"
#include "core/layouts.h"
#include "harness/harness.h"
#include "mpi/runtime.h"
#include "obs/recorder.h"

namespace gpuddt::bench {

inline sg::MachineConfig bench_machine() {
  sg::MachineConfig m;
  m.num_devices = 2;
  m.device_memory_bytes = std::size_t{3} << 30;
  return m;
}

inline mpi::RuntimeConfig bench_pingpong_cfg() {
  mpi::RuntimeConfig cfg;
  cfg.world_size = 2;
  cfg.machine = bench_machine();
  return cfg;
}

/// Matrix orders swept by the figures (the paper plots up to ~8K).
inline void matrix_sizes(benchmark::internal::Benchmark* b) {
  for (std::int64_t n : {256, 512, 1024, 2048, 4096}) b->Arg(n);
}

inline void small_matrix_sizes(benchmark::internal::Benchmark* b) {
  for (std::int64_t n : {256, 512, 1024, 2048}) b->Arg(n);
}

/// The paper's "V": an n x n/2 sub-matrix of a (n+512)-ld double matrix.
inline mpi::DatatypePtr v_type(std::int64_t n) {
  return core::submatrix_type(n, n / 2, n + 512);
}

/// The paper's "T": the lower triangle of an n x n double matrix.
inline mpi::DatatypePtr t_type(std::int64_t n) {
  return core::lower_triangular_type(n, n);
}

/// Contiguous peer of the same payload.
inline mpi::DatatypePtr c_type_of(const mpi::DatatypePtr& dt) {
  return mpi::Datatype::contiguous(dt->size() / 8, mpi::kDouble());
}

/// Record one virtual-time measurement as the iteration time plus a
/// bandwidth counter (payload bytes per direction / time).
inline void record(benchmark::State& state, vt::Time virtual_ns,
                   std::int64_t payload_bytes) {
  state.SetIterationTime(static_cast<double>(virtual_ns) * 1e-9);
  state.counters["GB/s"] = benchmark::Counter(
      virtual_ns > 0 ? static_cast<double>(payload_bytes) /
                           static_cast<double>(virtual_ns)
                     : 0.0);
  state.counters["msg_MB"] = benchmark::Counter(
      static_cast<double>(payload_bytes) / (1 << 20));
}

/// One run's results by benchmark name without google-benchmark's
/// suffixes, e.g. "BM_Fig10_SM_2GPU_T/2048". Looking up a benchmark that
/// did not run throws Results::Missing.
struct Results {
  struct Missing : std::out_of_range {
    using std::out_of_range::out_of_range;
  };
  struct Point {
    double ns;    // virtual ns per iteration (the manual time)
    double gbps;  // the GB/s counter record() sets
  };
  std::map<std::string, Point> points;

  double ns(const std::string& name) const { return at(name).ns; }
  double gbps(const std::string& name) const { return at(name).gbps; }
  const Point& at(const std::string& name) const {
    const auto it = points.find(name);
    if (it == points.end()) throw Missing(name + " did not run");
    return it->second;
  }
};

/// One claim of the paper (EXPERIMENTS.md), checked after every run of
/// the bench that defines it.
struct Claim {
  const char* text;
  bool (*holds)(const Results&);
};

/// True if `holds(s)` for every string in `items`, such as the argument
/// suffixes {"/2048", "/4096"}.
template <class F>
bool holds_for(std::initializer_list<const char*> items, F holds) {
  return std::all_of(items.begin(), items.end(),
                     [&](const char* s) { return holds(std::string(s)); });
}

/// Records every run into `results`, then passes it on to the display
/// reporter that --benchmark_format names (console, JSON or CSV).
struct RecordingReporter : benchmark::BenchmarkReporter {
  Results results;
  bool ran = false;  // stays false under --benchmark_list_tests
  BenchmarkReporter* display = benchmark::CreateDefaultDisplayReporter();

  bool ReportContext(const Context& context) override {
    ran = true;
    return display->ReportContext(context);
  }
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      std::string name = run.run_name.function_name;
      if (!run.run_name.args.empty()) name += "/" + run.run_name.args;
      const auto gb = run.counters.find("GB/s");
      results.points[name] = {
          run.real_accumulated_time * 1e9 /
              static_cast<double>(run.iterations),
          gb == run.counters.end() ? std::nan("") : gb->second.value};
    }
    display->ReportRuns(runs);
  }
  void Finalize() override { display->Finalize(); }
};

/// Prints one verdict per claim to stderr, so that JSON or CSV on stdout
/// still parses. A claim whose inputs did not run is skipped, which is an
/// error only when `complete` says every benchmark ran. Returns false if
/// a claim is violated or wrongly skipped.
inline bool check_claims(std::span<const Claim> claims, const Results& r,
                         bool complete) {
  bool ok = true;
  for (const Claim& c : claims) {
    try {
      const bool holds = c.holds(r);
      ok = ok && holds;
      std::fprintf(stderr, "claim %s: %s\n", holds ? "holds" : "VIOLATED",
                   c.text);
    } catch (const Results::Missing& e) {
      ok = ok && !complete;
      std::fprintf(stderr, "claim skipped (%s): %s\n", e.what(), c.text);
    }
  }
  return ok;
}

/// Shared main: strips `--metrics-out=FILE`, `--latency-out=FILE`,
/// `--trace-out=FILE`, `--profile`, `--stream-triggered` and `--check`
/// before handing the rest to google-benchmark, then dumps the
/// process-global recorder (which the harness feeds when specs carry no
/// recorder of their own) as JSON.
/// `--trace-out=FILE` turns tracing on and writes the trace buffer as a
/// Chrome Trace Event Format array (docs/tracing.md) to FILE, loadable in
/// chrome://tracing or Perfetto. `--profile` turns tracing on and prints
/// the per-rank stage-utilization table (obs::stage_profile_table) to
/// stdout after the run. `--check` turns the access checker on for every
/// machine the run creates; its findings land in the recorder's
/// `diagnostics` section (docs/checking.md).
/// `--stream-triggered` forces the stream-triggered fragment chains on
/// for every runtime the run creates (mpi::stream_triggered_switch,
/// docs/protocols.md), the same set_forced slot `--check` uses.
/// `--latency-out=FILE` switches the
/// process-global recorder's streaming flow-latency engine on before the
/// benchmarks run and writes the gpuddt-latency-v1 report
/// (docs/latency.md) to FILE afterwards - it works with tracing off,
/// since FlowStats consumes spans before the ring buffer can drop them.
/// After the run every claim prints its verdict (check_claims); the exit
/// status is 1 if one fails, or if the process-global recorder holds a
/// check or verify finding (any run with checking or verification on is
/// gated this way).
inline int bench_main(int argc, char** argv,
                      std::span<const Claim> claims = {}) {
  // Pin glibc's allocation thresholds, as perfbench/main.cpp does. By
  // default they adapt to the process's own history (freeing an mmapped
  // block raises the mmap threshold), so host vectors would be mapped and
  // unmapped, and faulted in again, on some cases and not on others.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  std::string metrics_out;
  std::string latency_out;
  std::string trace_out;
  bool profile = false;
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--metrics-out=", 14) == 0) {
      metrics_out = argv[i] + 14;
    } else if (std::strncmp(argv[i], "--latency-out=", 14) == 0) {
      latency_out = argv[i] + 14;
      obs::default_recorder().flowstats().enable(true);
    } else if (std::strncmp(argv[i], "--trace-out=", 12) == 0) {
      trace_out = argv[i] + 12;
      obs::default_recorder().enable_tracing(true);
    } else if (std::strcmp(argv[i], "--profile") == 0) {
      profile = true;
      obs::default_recorder().enable_tracing(true);
    } else if (std::strcmp(argv[i], "--stream-triggered") == 0) {
      mpi::stream_triggered_switch.set_forced(true);
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check::check_switch.set_forced(true);
    } else {
      args.push_back(argv[i]);
    }
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  RecordingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  const std::string filter = benchmark::GetBenchmarkFilter();
  const bool unfiltered = filter.empty() || filter == "." || filter == "all";
  const bool claims_ok =
      check_claims(claims, reporter.results, unfiltered && reporter.ran);
  benchmark::Shutdown();
  if (profile) {
    std::fputs(
        obs::stage_profile_table(obs::default_recorder().trace().snapshot())
            .c_str(),
        stdout);
  }
  if (!trace_out.empty() &&
      !obs::default_recorder().write_chrome_json(trace_out)) {
    std::fprintf(stderr, "failed to write chrome trace to %s\n",
                 trace_out.c_str());
    return 1;
  }
  if (!metrics_out.empty()) {
    if (!obs::default_recorder().write_json(metrics_out)) {
      std::fprintf(stderr, "failed to write metrics to %s\n",
                   metrics_out.c_str());
      return 1;
    }
  }
  if (!latency_out.empty()) {
    if (!obs::default_recorder().write_latency_json(latency_out)) {
      std::fprintf(stderr, "failed to write latency report to %s\n",
                   latency_out.c_str());
      return 1;
    }
  }
  const std::size_t findings = obs::default_recorder().diagnostics().size();
  if (findings > 0) {
    std::fprintf(stderr, "%zu check/verify finding(s) recorded\n", findings);
  }
  return claims_ok && findings == 0 ? 0 : 1;
}

}  // namespace gpuddt::bench

/// Drop-in replacement for BENCHMARK_MAIN() with --metrics-out support.
/// GPUDDT_BENCH_MAIN(kClaims) also checks the file's claims; the name is
/// looked up in gpuddt::bench.
#define GPUDDT_BENCH_MAIN(...)                                     \
  int main(int argc, char** argv) {                                \
    using namespace gpuddt::bench;                                 \
    return bench_main(argc, argv __VA_OPT__(, ) __VA_ARGS__);      \
  }

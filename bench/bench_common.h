// Shared setup for the figure-reproduction benchmarks.
//
// All benchmarks report *virtual* time from the calibrated machine model
// (benchmark::State::SetIterationTime with manual timing), so results are
// deterministic and hardware-independent. Counters expose the payload
// bandwidth the paper's figures plot.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
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

/// Shared main: strips `--metrics-out=FILE`, `--trace`,
/// `--trace-format=chrome|v1`, `--trace-out=FILE`, `--profile`,
/// `--check` and `--check-out=FILE` before handing the rest to
/// google-benchmark, then dumps the process-global recorder (which the
/// harness feeds when specs carry no recorder of their own) as JSON.
/// `--trace-format=chrome` (or any `--trace-out=`) implies `--trace` and
/// writes the trace buffer as a Chrome Trace Event Format array
/// (docs/tracing.md) to `--trace-out` (default `trace.json`), loadable
/// in chrome://tracing or Perfetto; `--trace-format=v1` keeps trace
/// events inline in the `--metrics-out` document, the pre-existing
/// behaviour of bare `--trace`. `--profile` implies `--trace` and prints
/// the per-rank stage-utilization table (obs::stage_profile_table) to
/// stdout after the run. `--check` turns the access checker on for every
/// machine the run creates; `--check-out` also writes the
/// gpuddt-check-v1 diagnostic report (docs/checking.md).
/// `--stream-triggered` forces the stream-triggered fragment chains on
/// for every runtime the run creates (mpi::stream_triggered_switch,
/// docs/protocols.md), the same set_forced slot the check flags use.
/// `--latency-out=FILE` switches the
/// process-global recorder's streaming flow-latency engine on before the
/// benchmarks run and writes the gpuddt-latency-v1 report
/// (docs/latency.md) to FILE afterwards - it works with tracing off,
/// since FlowStats consumes spans before the ring buffer can drop them.
/// Returns the usual benchmark exit status.
inline int bench_main(int argc, char** argv) {
  std::string metrics_out;
  std::string latency_out;
  std::string check_out;
  std::string trace_format;
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
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      obs::default_recorder().enable_tracing(true);
    } else if (std::strncmp(argv[i], "--trace-format=", 15) == 0) {
      trace_format = argv[i] + 15;
      obs::default_recorder().enable_tracing(true);
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
    } else if (std::strncmp(argv[i], "--check-out=", 12) == 0) {
      check::check_switch.set_forced(true);
      check_out = argv[i] + 12;
    } else {
      args.push_back(argv[i]);
    }
  }
  if (!trace_format.empty() && trace_format != "chrome" &&
      trace_format != "v1") {
    std::fprintf(stderr, "unknown --trace-format=%s (chrome|v1)\n",
                 trace_format.c_str());
    return 1;
  }
  const bool chrome = trace_format == "chrome" ||
                      (trace_format.empty() && !trace_out.empty());
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (profile) {
    std::fputs(
        obs::stage_profile_table(obs::default_recorder().trace().snapshot())
            .c_str(),
        stdout);
  }
  if (chrome) {
    const std::string path = trace_out.empty() ? "trace.json" : trace_out;
    if (!obs::default_recorder().write_chrome_json(path)) {
      std::fprintf(stderr, "failed to write chrome trace to %s\n",
                   path.c_str());
      return 1;
    }
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
  if (!check_out.empty()) {
    if (!check::write_report(check_out)) {
      std::fprintf(stderr, "failed to write check report to %s\n",
                   check_out.c_str());
      return 1;
    }
  }
  return 0;
}

}  // namespace gpuddt::bench

/// Drop-in replacement for BENCHMARK_MAIN() with --metrics-out support.
#define GPUDDT_BENCH_MAIN()                                \
  int main(int argc, char** argv) {                        \
    return gpuddt::bench::bench_main(argc, argv);          \
  }

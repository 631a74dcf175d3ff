#!/usr/bin/env bash
# CI driver: default build + tests, GPUDDT_CHECK=ON build + tests (the
# whole suite must run hazard-clean with the access checker attached to
# every machine), ASan/UBSan build + tests, a determinism sweep over all
# benchmark binaries (docs/determinism.md) that also enforces every
# figure bench's paper claims (EXPERIMENTS.md), the symbolic verifier over
# its corpus and over every DEV the bench suite caches
# (docs/verification.md), the simulator scale stage (1024-rank smoke +
# throughput baseline gate; docs/simulator.md), the flow-latency stage
# (traffic-mix baseline gates + gpuddt-latency-v1 shape validation +
# double-run determinism of both reports; docs/latency.md), and the
# blocking lint stage (clang-tidy with warnings-as-errors + the
# determinism lint + the doc lint). Mirrors the CMakePresets.json
# configurations.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS=${JOBS:-$(nproc 2>/dev/null || echo 4)}

run() {
  echo "== $* =="
  "$@"
}

# 1. Default configuration.
run cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
run cmake --build build -j "$JOBS"
run ctest --test-dir build --output-on-failure -j "$JOBS"

# 2. Checking on by default: every machine in the suite gets the hazard
#    detector + DEV invariant checker attached.
run cmake -B build-check -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DGPUDDT_CHECK=ON
run cmake --build build-check -j "$JOBS"
run ctest --test-dir build-check --output-on-failure -j "$JOBS"

# 3. ASan + UBSan.
run cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DGPUDDT_SANITIZE=ON
run cmake --build build-asan -j "$JOBS"
run ctest --test-dir build-asan --output-on-failure -j "$JOBS"

# 4. Chrome-trace export end to end: generate a trace from one pipelined
#    benchmark and shape-check it (array, monotone ts, non-negative dur,
#    well-formed fragment flow events; docs/tracing.md).
#    Perfetto/chrome://tracing load exactly this file.
run build/bench/bench_fig9_pcie_pingpong \
  "--benchmark_filter=BM_Fig9_V/1024/" --trace-format=chrome \
  --trace-out=build/ci_chrome_trace.json
run build/tools/metrics_diff --validate-chrome build/ci_chrome_trace.json

# 4b. Critical-path profiler over the same trace: the fragment flow ids
#     must chain into a DAG whose overlap efficiency lands in (0, 1]
#     (docs/metrics.md, gpuddt-critpath-v1).
run build/tools/trace_critpath --check-efficiency \
  --json-out=build/ci_critpath.json build/ci_chrome_trace.json

# 4c. Stream-triggered fragment chains (docs/protocols.md): the same
#     benchmark with the chains offloaded to the GPU streams must
#     produce a valid trace whose critical path has no per-fragment
#     host wait - only the one-time rendezvous - and overlap efficiency
#     still in (0, 1]. The deterministic virtual-time gate for this mode
#     is bench_baseline_gate_fig9_stream in ctest.
run build/bench/bench_fig9_pcie_pingpong --stream-triggered \
  "--benchmark_filter=BM_Fig9_V/1024/" --trace-format=chrome \
  --trace-out=build/ci_chrome_trace_stream.json
run build/tools/metrics_diff --validate-chrome \
  build/ci_chrome_trace_stream.json
run build/tools/trace_critpath --check-efficiency \
  --json-out=build/ci_critpath_stream.json \
  build/ci_chrome_trace_stream.json

# 5. Determinism sweep: every benchmark binary must double-run to
#    byte-identical canonical metrics (the in-suite bench_determinism
#    ctest entries cover bench_fig10_pingpong and the seeded datatype-zoo
#    capacity sweep bench_ddt_zoo; this covers them all). Each run is
#    unfiltered, so a figure bench whose paper claims fail exits 1 and
#    fails the sweep. The checked-in baseline gates (bench_baseline_gate*,
#    including the shape-dedup workload's bench_baseline_gate_ddt_zoo) and
#    the paper_claims_* entries already ran as part of ctest.
run build/tools/determinism_check build/bench/bench_*

# 6. Symbolic verification (docs/verification.md): the static prover
#    certifies its datatype corpus + the pipeline model, every seeded
#    mutation is rejected, and - with the cache-insert hook forced on -
#    every DEV the seeded datatype-zoo capacity sweep caches is certified
#    at insert time (an uncertified DEV aborts the run).
run build/tools/dev_verify --json-out=build/ci_dev_verify.json
for mode in dropped_unit shifted_disp overlap_pk reorder_edge \
    dropped_credit; do
  if build/tools/dev_verify --mutate "$mode" --seed 7 \
      --json-out="build/ci_dev_verify_$mode.json"; then
    echo "ci.sh: dev_verify --mutate $mode unexpectedly passed" >&2
    exit 1
  fi
done
run env GPUDDT_VERIFY=1 build/bench/bench_ddt_zoo \
  --metrics-out=build/ci_zoo_verify.json

# 7. Simulator scale (docs/simulator.md): the event-driven core must
#    hold 1000+ ranks. The 1024-rank smoke runs the SimScale suite
#    (ring exchange over a fat tree, double-run deterministic, plus the
#    1024-rank deadlock report), the throughput bench re-gates its
#    deterministic sim.* scheduling counters against the checked-in
#    baseline, and a 256-rank-config determinism double-run closes the
#    loop. (Stage 5's sweep already double-ran bench_sim_throughput;
#    this run is the named, grep-able scale gate.)
run ctest --test-dir build --output-on-failure -R 'SimScale'
run build/bench/bench_sim_throughput \
  --metrics-out=build/ci_sim_throughput.json
run build/tools/metrics_diff --gate \
  --baseline bench/baselines/sim_throughput.json \
  build/ci_sim_throughput.json
run build/tools/determinism_check build/bench/bench_sim_throughput \
  -- "--benchmark_filter=BM_SimThroughput_Ring/256"

# 8. Flow-latency pipeline (docs/latency.md): the seeded traffic-mix
#    workload gates BOTH of its reports against the checked-in baselines
#    (bench_baseline_gate_traffic_mix* in ctest already ran; this is the
#    named CI stage), the gpuddt-latency-v1 report passes shape
#    validation, and a double run of both sinks is byte-identical -
#    FlowStats::to_json is canonical, so raw file comparison is the
#    strictest gate available.
run build/bench/bench_traffic_mix \
  --metrics-out=build/ci_traffic_mix_metrics.json \
  --latency-out=build/ci_traffic_mix_latency.json
run build/tools/metrics_diff --validate-latency \
  build/ci_traffic_mix_latency.json
run build/tools/metrics_diff --gate \
  --baseline bench/baselines/traffic_mix.json \
  build/ci_traffic_mix_metrics.json
run build/tools/metrics_diff --gate \
  --baseline bench/baselines/traffic_mix_latency.json \
  build/ci_traffic_mix_latency.json
run build/bench/bench_traffic_mix \
  --metrics-out=build/ci_traffic_mix_metrics2.json \
  --latency-out=build/ci_traffic_mix_latency2.json
run cmp build/ci_traffic_mix_metrics.json \
  build/ci_traffic_mix_metrics2.json
run cmp build/ci_traffic_mix_latency.json \
  build/ci_traffic_mix_latency2.json

# 9. Lint: blocking. clang-tidy findings are errors
#    (--warnings-as-errors=*) and a missing clang-tidy fails the stage
#    instead of degrading; the determinism lint and the documentation
#    lint (tools/doc_lint.py) run in the same target.
if ! command -v clang-tidy >/dev/null 2>&1; then
  echo "ci.sh: clang-tidy is required for the blocking lint stage" >&2
  exit 1
fi
run cmake --build build --target lint

echo "== ci.sh: all configurations passed =="

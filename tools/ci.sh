#!/usr/bin/env bash
# CI driver. Each check runs once, in one place:
#   1. default build + every ctest entry (unit tests, the checked-in
#      baseline gates, chrome-trace shape and critical-path checks, the
#      simulator scale suite, the flow-latency gates and determinism
#      double-runs);
#   2. the same suite in the GPUDDT_CHECK=ON build (every machine runs
#      hazard-clean with the access checker attached, and fresh
#      allocations hold poison; a checked bench exits 1 on any finding);
#   3. the same suite under ASan + UBSan;
#   5. a determinism sweep over all benchmark binaries
#      (docs/determinism.md) that also enforces every figure bench's paper
#      claims (EXPERIMENTS.md);
#   6. the symbolic verifier over its corpus and over every DEV the bench
#      suite caches (docs/verification.md);
#   9. the benchmark's virtual-time pins (perfbench's vt_digest per
#      workload; docs/determinism.md);
#  10. the blocking lint stage (clang-tidy with warnings-as-errors + the
#      determinism lint + the doc lint).
# Stage numbers are stable names: the missing ones (4, 7, 8) re-ran ctest
# entries stage 1 already runs. Mirrors the CMakePresets.json
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
#    detector + DEV invariant checker attached, and every bench ctest
#    entry exits 1 on any hazard or DEV violation it records. The
#    checker also turns the poison fill on: every fresh device, pinned
#    host and symmetric-heap allocation holds kPoisonByte, so a path or
#    test that reads bytes nothing wrote fails its bit-exact check
#    (docs/checking.md).
run cmake -B build-check -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DGPUDDT_CHECK=ON
run cmake --build build-check -j "$JOBS"
run ctest --test-dir build-check --output-on-failure -j "$JOBS"

# 3. ASan + UBSan.
run cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DGPUDDT_SANITIZE=ON
run cmake --build build-asan -j "$JOBS"
run ctest --test-dir build-asan --output-on-failure -j "$JOBS"

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

# 9. Benchmark virtual time (docs/determinism.md): every workload of the
#    repository benchmark (BENCHMARK.json) runs for one second on its
#    default seed. It must be correct, fail no operation and replay the
#    pinned vt_digest, a digest of each episode's virtual-time results.
#    A change that moves virtual time on purpose updates these pins in the
#    same change as its regenerated baselines (tools/regen_baselines.sh).
PERFBENCH_VT_DIGESTS=(
  "engine_pack ea5142b1a59eb3a3"
  "host_ring ac8458619b28207b"
  "gpu_mix 777bc40386006b52"
)
for pin in "${PERFBENCH_VT_DIGESTS[@]}"; do
  read -r workload want <<<"$pin"
  out=build/ci_perfbench_$workload.txt
  echo "== perfbench $workload: vt_digest pinned to $want =="
  python3 perfbench/run.py --workload "$workload" --seed 20160531 \
    --seconds 1 >"$out"
  if ! tail -n 1 "$out" | python3 -c 'import json, sys
r = json.load(sys.stdin)
sys.exit(0 if r["correct"] and r["failed"] == 0 else 1)'; then
    echo "ci.sh: perfbench $workload is incorrect or failed operations" >&2
    exit 1
  fi
  got=$(sed -n 's/^# episodes=[0-9]* vt_digest=\([0-9a-f]*\)$/\1/p' "$out")
  if [ "$got" != "$want" ]; then
    echo "ci.sh: perfbench $workload vt_digest is now $got, pinned $want" >&2
    exit 1
  fi
done

# 10. Lint: blocking. clang-tidy findings are errors
#    (--warnings-as-errors=*) and a missing clang-tidy fails the stage
#    instead of degrading; the determinism lint and the documentation
#    lint (tools/doc_lint.py) run in the same target.
if ! command -v clang-tidy >/dev/null 2>&1; then
  echo "ci.sh: clang-tidy is required for the blocking lint stage" >&2
  exit 1
fi
run cmake --build build --target lint

echo "== ci.sh: all configurations passed =="

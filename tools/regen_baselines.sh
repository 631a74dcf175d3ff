#!/usr/bin/env bash
# Regenerate the checked-in metrics baselines under bench/baselines/.
#
# Each baseline is the CANONICAL (metrics_diff --canon: counters +
# histograms, findings dropped, sorted keys) gpuddt-metrics-v1 dump of one
# benchmark configuration. Virtual time is deterministic, so the CI gate
# (metrics_diff --gate --baseline, the bench_baseline_gate ctest entry)
# compares against these files byte-for-byte with zero headroom. Rerun
# this script - and review the diff! - whenever a change intentionally
# moves a modeled cost, then commit the updated baselines with the change
# that moved them. docs/determinism.md has the full story. A chrome/<name>
# baseline is instead one small run's raw --trace-out chrome array, and a
# results/<name> baseline the reduced --benchmark_out results of one
# unfiltered run of a bench that records no counters
# (tests/run_results_gate.cmake).
# The perfbench vt_digest pins (PERFBENCH_VT_DIGESTS in tools/ci.sh) move
# with these baselines: update them in the same change.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD=${BUILD:-build}
OUT=bench/baselines
JOBS=${JOBS:-$(nproc 2>/dev/null || echo 4)}

# name|binary|benchmark_filter|extra_args  (name becomes $OUT/<name>.json;
# extra_args, when present, are passed through to the bench binary - the
# stream-triggered variants reuse the host-driven binaries with the
# --stream-triggered flag from bench_common.h rather than registering
# duplicate benchmarks, so the host-driven dumps stay untouched).
BASELINES=(
  "fig10_sm_1gpu_t_256|bench_fig10_pingpong|BM_Fig10_SM_1GPU_T/256/|"
  "fig9_pcie_pingpong|bench_fig9_pcie_pingpong||"
  "coll_datatype|bench_coll_datatype||"
  "onesided|bench_onesided||"
  "ablation_pipeline|bench_ablation_pipeline||"
  "ddt_zoo|bench_ddt_zoo||"
  "fig9_stream_triggered|bench_fig9_pcie_pingpong||--stream-triggered"
  "ablation_pipeline_stream_triggered|bench_ablation_pipeline||--stream-triggered"
  "sim_throughput|bench_sim_throughput||"
  "traffic_mix|bench_traffic_mix||"
  "chrome/fig10_ib_t_256|bench_fig10_pingpong|BM_Fig10_IB_T/256/|"
  "chrome/fig9_t_512_stream|bench_fig9_pcie_pingpong|BM_Fig9_T/512/|--stream-triggered"
)

# Benches whose dumps hold no counters: their results are gated instead.
RESULTS=(fig6_kernel_bandwidth fig8_vs_memcpy2d fig1_alternatives
         app_workloads)

binaries=(metrics_diff)
for spec in "${BASELINES[@]}"; do
  IFS='|' read -r _ bin _ _ <<<"$spec"
  binaries+=("$bin")
done
for name in "${RESULTS[@]}"; do
  binaries+=("bench_$name")
done
cmake --build "$BUILD" -j "$JOBS" --target "${binaries[@]}"

mkdir -p "$OUT/chrome"
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT
for spec in "${BASELINES[@]}"; do
  IFS='|' read -r name bin filter extra <<<"$spec"
  args=(--metrics-out="$tmp")
  [ -n "$filter" ] && args+=("--benchmark_filter=$filter")
  [ -n "$extra" ] && args+=($extra)
  [[ $name == chrome/* ]] &&
    args+=("--trace-out=$OUT/$name.json")
  # The traffic-mix workload also pins the flow-latency report
  # (docs/latency.md): one run produces both baselines.
  latency_tmp=
  if [ "$name" = traffic_mix ]; then
    latency_tmp=$(mktemp)
    args+=(--latency-out="$latency_tmp")
  fi
  echo "== $name: $bin ${filter:+(filter $filter)}${extra:+ ($extra)}"
  "$BUILD/bench/$bin" "${args[@]}" > /dev/null
  [[ $name == chrome/* ]] && continue
  "$BUILD/tools/metrics_diff" --canon "$tmp" > "$OUT/$name.json"
  if [ -n "$latency_tmp" ]; then
    # --canon dispatches on the schema marker, so the same idempotent
    # canonicalization covers the gpuddt-latency-v1 report.
    "$BUILD/tools/metrics_diff" --canon "$latency_tmp" \
      > "$OUT/${name}_latency.json"
    rm -f "$latency_tmp"
  fi
done

mkdir -p "$OUT/results"
for name in "${RESULTS[@]}"; do
  echo "== results/$name: bench_$name"
  "$BUILD/bench/bench_$name" --benchmark_out="$tmp" \
    --benchmark_out_format=json > /dev/null
  cmake -DRESULTS="$tmp" -DBASELINE="$OUT/results/$name.json" -DWRITE=1 \
    -P tests/run_results_gate.cmake
done

echo "== baselines regenerated into $OUT - review with git diff"

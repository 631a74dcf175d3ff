#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload engine_pack|host_ring|gpu_mix \
        [--seed N] [--seconds S] [--trace 0|1]

Configures and builds perfbench/CMakeLists.txt (Release) under the build
root - $CARGO_TARGET_DIR when set, else .bench_build - then runs the
workload binary, whose standard output ends with the one-line JSON result.
Build output goes to <build root>/perfbench/build.log. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("engine_pack", "host_ring", "gpu_mix")
# Behaviour switches the ROADMAP retires; the benchmark measures the
# default configuration only.
REFUSED_ENV = ("GPUDDT_SIM_BACKEND", "GPUDDT_CHECK", "GPUDDT_VERIFY",
               "GPUDDT_STREAM_TRIGGERED")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, log):
    with open(log, "a") as f:
        f.write("$ " + " ".join(cmd) + "\n")
        f.flush()
        return subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode


def build():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log = os.path.join(build_dir, "build.log")
    open(log, "w").close()
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target",
                  "perfbench_workload", "-j", jobs])
    for cmd in steps:
        if run_logged(cmd, log) != 0:
            with open(log) as f:
                sys.stderr.write("".join(f.readlines()[-40:]))
            fail(f"build failed (log: {log})")
    return os.path.join(build_dir, "perfbench_workload")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=20160531)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()

    for var in REFUSED_ENV:
        if var in os.environ:
            fail(f"refusing to run with {var} set")
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"simulator sources not found under {ROOT}/src")

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Measure the host cost of every bench binary of a build: time, faults, RSS.

Usage:

    python3 tools/bench_rusage.py [--build DIR] [--runs 3] \\
        [--out BENCH_RUSAGE.json]

Runs every executable `bench_*` in `<DIR>/bench` (default DIR: build)
without arguments, so each runs unfiltered and checks its paper claims.
The suite runs --runs times, bench after bench, in a temporary working
directory. Each run's resource usage is read with wait4, so it covers
that bench process alone: wall, user and sys time, minor page faults
and peak resident set size (ru_maxrss).

Per bench the output records the median of each of those over the runs
and every run's exit status. The totals are the median over runs of the
suite's summed wall, user, sys and faults, and the largest per-bench
median peak RSS. A table of the same numbers goes to stdout, and the
JSON document to --out.

ru_maxrss counts what the process had resident before it executed the
bench, which is the forked launcher's footprint: about 10 MiB from
Python. A bench whose own peak is smaller still reads about 10 MiB, so
small values are a floor, not a measurement.

Exit status: 0 when every run of every bench exited 0, 1 when one did
not, 2 on a usage error.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

SCHEMA = "gpuddt-bench-rusage-v1"
FIELDS = ("wall_ms", "user_ms", "sys_ms", "minflt", "maxrss_mb")
SUMMED = ("wall_ms", "user_ms", "sys_ms", "minflt")
RSS_NOTE = ("maxrss_mb includes the launcher's pre-exec footprint (about "
            "10 MiB from Python); small values are a floor")


def fail(msg):
    print(f"bench_rusage: {msg}", file=sys.stderr)
    sys.exit(2)


def build_type(build):
    try:
        with open(os.path.join(build, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip() or None
    except OSError:
        pass
    return None


def run_once(path, cwd):
    """Run one bench; returns its exit status and resource usage."""
    with tempfile.TemporaryFile() as err:
        t0 = time.monotonic()
        proc = subprocess.Popen([path], cwd=cwd, stdout=subprocess.DEVNULL,
                                stderr=err)
        _, status, ru = os.wait4(proc.pid, 0)
        wall = time.monotonic() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            err.seek(0)
            sys.stderr.write(err.read()[-2000:].decode(errors="replace"))
    return {
        "returncode": proc.returncode,
        "wall_ms": wall * 1e3,
        "user_ms": ru.ru_utime * 1e3,
        "sys_ms": ru.ru_stime * 1e3,
        "minflt": ru.ru_minflt,
        "maxrss_mb": ru.ru_maxrss / 1024.0,  # KiB on Linux
    }


def table(doc):
    head = f"{'bench':32s} {'wall ms':>9s} {'user ms':>9s} {'sys ms':>9s} " \
           f"{'minflt':>9s} {'maxrss MiB':>10s}"
    rows = [head, "-" * len(head)]

    def row(name, r):
        return (f"{name:32s} {r['wall_ms']:9.0f} {r['user_ms']:9.0f} "
                f"{r['sys_ms']:9.0f} {r['minflt']:9.0f} "
                f"{r['maxrss_mb']:10.1f}")

    for name, r in doc["benches"].items():
        rows.append(row(name, r))
    rows.append(row("total", doc["total"]))
    rows.append(f"# {doc['runs']} runs, medians; build={doc['build_type']} "
                f"cores={doc['cores']}; {RSS_NOTE}")
    return "\n".join(rows)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build", default="build")
    ap.add_argument("--runs", type=int, default=3)
    ap.add_argument("--out", default="BENCH_RUSAGE.json")
    args = ap.parse_args()

    bench_dir = os.path.abspath(os.path.join(args.build, "bench"))
    if not os.path.isdir(bench_dir):
        fail(f"no bench directory under {args.build}")
    names = sorted(n for n in os.listdir(bench_dir)
                   if n.startswith("bench_") and
                   os.access(os.path.join(bench_dir, n), os.X_OK) and
                   os.path.isfile(os.path.join(bench_dir, n)))
    if not names or args.runs < 1:
        fail("need at least one bench binary and one run")

    samples = {n: [] for n in names}
    with tempfile.TemporaryDirectory() as cwd:
        for i in range(args.runs):
            for n in names:
                samples[n].append(run_once(os.path.join(bench_dir, n), cwd))
            wall = sum(samples[n][-1]["wall_ms"] for n in names)
            print(f"run {i + 1}/{args.runs}: {wall / 1e3:.1f} s", flush=True)

    benches = {}
    for n in names:
        rs = samples[n]
        benches[n] = {f: statistics.median(r[f] for r in rs) for f in FIELDS}
        benches[n]["returncodes"] = [r["returncode"] for r in rs]
    total = {f: statistics.median(sum(samples[n][i][f] for n in names)
                                  for i in range(args.runs))
             for f in SUMMED}
    total["maxrss_mb"] = max(b["maxrss_mb"] for b in benches.values())
    doc = {
        "schema": SCHEMA, "build": args.build, "build_type":
        build_type(args.build), "cores": os.cpu_count(), "runs": args.runs,
        "note": RSS_NOTE, "benches": benches, "total": total,
    }
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    print(table(doc))
    ok = all(c == 0 for b in benches.values() for c in b["returncodes"])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

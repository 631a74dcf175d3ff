#!/usr/bin/env python3
"""Compare two checkouts on the repository benchmark with alternating pairs.

Usage:

    python3 tools/bench_pairs.py --parent DIR --change DIR \\
        [--workloads host_ring,gpu_mix,engine_pack] [--pairs 10] \\
        [--seed 20160531] [--out BENCH.json]

Each pair runs `python3 <root>/perfbench/run.py --workload W --seed N
--seconds S` once in the parent checkout and once in the change
checkout, each tree with its own `perfbench/run.py` and its own build
under `<root>/.bench_build`. S is the benchmark's run length,
`run_seconds` in the parent's BENCHMARK.json. Pair i runs the parent
first when i is even and the change first when i is odd, so a slow spell
of a shared machine lands on both sides. Before the first pair each tree
is built and run for one short episode, so no build falls inside a timed
run.

For every workload and end-to-end metric of the parent's BENCHMARK.json
the output records both sides' values, medians, quartiles and
IQR/median, the change's wins out of the pairs (by the metric's
`better` direction), the ratio of the medians and whether the medians
lie further apart than the parent's IQR. It also records `failed` and
`attempted`, each side's `vt_digest` and episode counts, and the build
type and core count the runs printed. With --out naming an existing
file, results for other (workload, seed) keys are kept and the same key
is replaced, so one file can hold several seeds.

Exit status: 0 when every run was correct, 1 when a run failed, was
incorrect or failed to print its JSON line, 2 on a usage error.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

SCHEMA = "gpuddt-bench-pairs-v1"
SIDES = ("parent", "change")
# Length of the untimed run that builds each tree before the first pair.
WARMUP_SECONDS = 0.1


def fail(msg):
    print(f"bench_pairs: {msg}", file=sys.stderr)
    sys.exit(2)


def run_once(root, workload, seed, seconds):
    """One perfbench run in `root`; returns its parsed result."""
    env = dict(os.environ)
    # run.py builds under $CARGO_TARGET_DIR when set; keep each tree's
    # build inside its own checkout so the two sides never share one.
    env.pop("CARGO_TARGET_DIR", None)
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                          text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    res = {"returncode": proc.returncode}
    try:
        res.update(json.loads(lines[-1]))
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        res.update({"correct": False, "attempted": 0, "failed": 0,
                    "metrics": {}})
        return res
    for line in lines:
        m = re.match(r"# perfbench .*build=(\S+) cores=(\d+)", line)
        if m:
            res["build_type"], res["cores"] = m.group(1), int(m.group(2))
        m = re.match(r"# episodes=(\d+) vt_digest=([0-9a-f]+)", line)
        if m:
            res["episodes"], res["vt_digest"] = int(m.group(1)), m.group(2)
    return res


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(values):
    q1, med, q3 = quartiles(values)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / med if med else None}


def compare(spec, runs):
    """Per-metric summary of one workload's pairs."""
    out = {}
    for metric in spec["end_to_end"]:
        name, better = metric["name"], metric["better"]
        side_vals = {s: [r[s]["metrics"].get(name, {}).get("value")
                         for r in runs] for s in SIDES}
        if any(v is None for vals in side_vals.values() for v in vals):
            continue
        par, chg = (summarize(side_vals[s]) for s in SIDES)
        sign = 1 if better == "higher" else -1
        wins = sum(1 for p, c in zip(par["values"], chg["values"])
                   if sign * (c - p) > 0)
        out[name] = {
            "unit": metric["unit"], "better": better, "bound": metric["bound"],
            "parent": par, "change": chg, "wins": wins, "pairs": len(runs),
            "median_ratio": chg["median"] / par["median"]
            if par["median"] else None,
            "separated": abs(chg["median"] - par["median"]) >
            par["q3"] - par["q1"],
        }
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workloads", default="engine_pack,host_ring,gpu_mix")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=20160531)
    ap.add_argument("--out", default="BENCH.json")
    args = ap.parse_args()

    roots = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    for side, root in roots.items():
        if not os.path.exists(os.path.join(root, "perfbench", "run.py")):
            fail(f"{side}: no perfbench/run.py under {root}")
    with open(os.path.join(roots["parent"], "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = [w for w in args.workloads.split(",") if w]
    if args.pairs < 1 or not workloads:
        fail("need at least one pair and one workload")

    doc = {"schema": SCHEMA, "results": []}
    if os.path.exists(args.out):
        with open(args.out) as f:
            doc = json.load(f)
    ok = True
    for w in workloads:
        for side in SIDES:  # build, and warm the page cache
            run_once(roots[side], w, args.seed, WARMUP_SECONDS)
        runs = []
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"first": order[0]}
            for side in order:
                pair[side] = run_once(roots[side], w, args.seed, seconds)
                r = pair[side]
                ok &= r["returncode"] == 0 and r["correct"] and not r["failed"]
            runs.append(pair)
            rates = " ".join(
                f"{s}={pair[s]['metrics'].get('steps_per_s', {}).get('value')}"
                for s in SIDES)
            print(f"{w} seed={args.seed} pair {i + 1}/{args.pairs} "
                  f"steps_per_s: {rates}", flush=True)
        entry = {
            "workload": w, "seed": args.seed, "seconds": seconds,
            "pairs": args.pairs, "order": [r["first"] for r in runs],
            "build_type": runs[0]["parent"].get("build_type"),
            "cores": runs[0]["parent"].get("cores"),
            "metrics": compare(spec, runs),
        }
        for side in SIDES:
            rs = [r[side] for r in runs]
            entry[side] = {
                "attempted": sum(r["attempted"] for r in rs),
                "failed": sum(r["failed"] for r in rs),
                "correct": all(r["correct"] for r in rs),
                "vt_digest": sorted({r.get("vt_digest", "?") for r in rs}),
                "episodes": [r.get("episodes") for r in rs],
            }
        doc["results"] = [e for e in doc["results"]
                          if (e["workload"], e["seed"]) !=
                          (w, args.seed)] + [entry]
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")
        for name, m in entry["metrics"].items():
            print(f"  {name:18s} parent {m['parent']['median']:.4g} change "
                  f"{m['change']['median']:.4g} ratio {m['median_ratio']} "
                  f"wins {m['wins']}/{m['pairs']} "
                  f"parent IQR/med {m['parent']['iqr_over_median']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

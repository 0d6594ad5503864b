#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and summarise each metric.

Run from the repository root:

    python3 perfbench/repeat.py --workloads explore,live,tune --seeds 1-10

For every workload it runs the command of BENCHMARK.json once per seed,
reads the result line, and prints per metric the median, the first and
third quartiles (statistics.quantiles, n=4), the spread (Q3 - Q1) as a
share of the median, and the metric's bound. It records the host facts
the benchmark printed, the seeds and the sample counts, and writes the
summary to .perfbench_out/summary-<workload>-trace<t>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def seeds_from(spec):
    seeds = []
    for part in spec.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    started = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    facts = {}
    for line in lines[:-1]:
        if line.startswith("host.") and " = " in line:
            key, value = line.split(" = ", 1)
            facts[key] = value
    return json.loads(lines[-1]), facts, wall


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=None, help="comma list (default: all)")
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()

    bench = json.loads(Path("BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = seeds_from(args.seeds)
    out_dir = Path(".perfbench_out")
    out_dir.mkdir(exist_ok=True)

    worst = 0.0
    for workload in workloads:
        values, facts, walls = {}, {}, []
        for seed in seeds:
            result, facts, wall = run_once(bench, workload, seed, seconds, args.trace)
            walls.append(wall)
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{workload} seed {seed}: {result}")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"  {workload} seed {seed}: {wall:.1f} s", file=sys.stderr)
        summary = {"workload": workload, "seeds": seeds, "seconds": seconds,
                   "trace": args.trace, "host": facts,
                   "wall_s_max": max(walls), "metrics": {}}
        print(f"== {workload} (trace {args.trace}, {len(seeds)} runs, "
              f"longest {max(walls):.1f} s) {facts}")
        print(f"   {'metric':<32} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
                flag = " OVER" if spread > bound else (" >1/3" if spread > bound / 3 else "")
            print(f"   {name:<32} {med:>14.4f} {q1:>14.4f} {q3:>14.4f} "
                  f"{spread:>8.4f} {bound if bound is not None else '':>6}{flag}")
            summary["metrics"][name] = {"n": len(vals), "median": med, "q1": q1,
                                        "q3": q3, "spread": spread, "values": vals}
        path = out_dir / f"summary-{workload}-trace{args.trace}.json"
        path.write_text(json.dumps(summary, indent=2) + "\n")
    if args.trace == 0:
        print(f"largest spread / bound: {worst:.3f}")


if __name__ == "__main__":
    main()

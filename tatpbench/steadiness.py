#!/usr/bin/env python3
"""Runs the benchmark's end-to-end runs several times per workload, with
seeds 1, 2, ..., and reports each end-to-end metric's median and quartile
spread (Q3 - Q1 over the median, from statistics.quantiles(values, n=4)).

Run from the repository root:

    python3 tatpbench/steadiness.py --runs 10 --out tatpbench/steadiness/<name>.json

The per-run values are written to --out so the spread a bound was chosen
from stays on record: each run's result, its per-round values, the median
host-speed probe of each engine process (multiply a scaled duration by the
square root of the probe over 1.8 ms to undo the scaling), the share of
each kept process's slices that saw steal, and how many processes the run
repeated.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", nargs="*", help="default: every workload in BENCHMARK.json")
    ap.add_argument("--out", help="JSON file for the per-run values")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    record = {"run_seconds": bench["run_seconds"], "command": bench["command"], "workloads": {}}
    worst = 0.0
    for wl in workloads:
        runs = []
        for i in range(args.runs):
            seed = 1 + i
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            start = time.monotonic()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            wall = time.monotonic() - start
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                sys.exit(f"{wl} seed {seed}: exit {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            provenance = None
            per_round = {}
            probe_ns = {}
            stolen_slices_pct = {}
            for line in proc.stdout.splitlines():
                fields = line.split("\t")
                if fields[0] == "provenance":
                    provenance = json.loads(fields[1])
                elif fields[0] == "info" and len(fields) == 4 and fields[1] in bounds:
                    per_round[fields[1]] = [float(x) for x in fields[3].split()]
                elif fields[0] == "info" and len(fields) == 4:
                    probe = re.search(r"median probe (\d+) ns", fields[3])
                    if probe:
                        probe_ns.setdefault(fields[2], []).append(int(probe.group(1)))
                    steal = re.search(r"steal in (\d+)% of the slices", fields[3])
                    if steal:
                        stolen_slices_pct.setdefault(fields[2], []).append(int(steal.group(1)))
            runs.append({"seed": seed, "wall_s": round(wall, 2), "result": result,
                         "per_round": per_round, "probe_ns": probe_ns,
                         "stolen_slices_pct": stolen_slices_pct,
                         "repeats": proc.stdout.count("running it again"),
                         "provenance": provenance})
            print(f"{wl} seed {seed}: {wall:.1f} s", file=sys.stderr, flush=True)
        summary = {}
        for name in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q = statistics.quantiles(values, n=4) if len(values) > 1 else [med, med, med]
            spread = (q[2] - q[0]) / med if med else float("inf")
            bound = bounds.get(name)
            summary[name] = {"median": med, "q1": q[0], "q3": q[2], "spread": spread,
                             "bound": bound, "spread_over_bound": spread / bound if bound else None}
            if bound and name != "setup_s":
                worst = max(worst, spread / bound)
            flag = "" if not bound else ("  OK" if spread < bound / 3 else ("  <bound" if spread < bound else "  OVER"))
            print(f"{wl:12s} {name:18s} median {med:12.5g}  spread {spread:7.4f}  bound {bound}{flag}")
        record["workloads"][wl] = {"summary": summary, "runs": runs}
        # Written after every workload, so an interrupted set keeps what it has.
        if args.out:
            with open(args.out, "w") as f:
                json.dump(record, f, indent=1)
                f.write("\n")
    print(f"worst spread / bound (excluding setup_s): {worst:.3f}")


if __name__ == "__main__":
    main()

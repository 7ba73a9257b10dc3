#!/usr/bin/env python3
"""Run one workload under several seeds and report each end-to-end
metric's median and run-to-run spread (interquartile range over median),
the figure BENCHMARK.json's bounds are checked against.

    python3 perfbench/spread.py --workload NAME [--runs 10] [--first-seed 1]
        [--seconds S]

Run from the root of a checkout; --seconds defaults to BENCHMARK.json's
run_seconds.  Runs are untraced: only end-to-end metrics have bounds.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(args.seconds), "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"seed {seed}: exit {out.returncode}\n{out.stdout}{out.stderr}")
            return 1
        result = json.loads(lines[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        speed = [ln for ln in lines if ln.startswith("# speed ")]
        print(f"seed {seed}: attempted={result['attempted']} "
              f"failed={result['failed']} correct={result['correct']} "
              + " ".join(s[2:] for s in speed),
              file=sys.stderr)
    for name, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
        else:
            spread = float("nan")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  <-- above a third of the bound"
        print(f"{name:28s} median={med:<14.6g} spread={spread:7.4f} "
              f"bound={bound}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

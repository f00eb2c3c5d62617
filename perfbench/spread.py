#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the benchmark command of BENCHMARK.json (or the binary given with
--bin) once per seed on each named workload and prints, per metric, the
median of the runs and the interquartile distance as a share of it,
computed with statistics.quantiles(values, n=4) -- the rule
BENCHMARK.json's bounds are checked with. Run from the repository root:

    python3 perfbench/spread.py --seeds 1-10 undersub thrash observed
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bin", help="run this perfbench binary instead of the command")
    ap.add_argument("--seeds", type=seeds, default=seeds("1-5"), help="e.g. 1-10")
    ap.add_argument("--seconds", type=int, help="default: run_seconds")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--verbose", action="store_true", help="print every run's value")
    ap.add_argument("workloads", nargs="+")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    command = [args.bin] if args.bin else spec["command"]
    seconds = args.seconds or spec["run_seconds"]

    worst = 0.0
    for workload in args.workloads:
        runs, elapsed = [], []
        for seed in args.seeds:
            t0 = time.monotonic()
            out = subprocess.run(
                command + ["--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", args.trace],
                check=True, capture_output=True, text=True,
            ).stdout
            elapsed.append(time.monotonic() - t0)
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: incorrect output\n{out}")
            runs.append(result["metrics"])
        print(f"{workload}: {len(runs)} runs, {max(elapsed):.1f} s longest, "
              f"{sum(elapsed):.0f} s total")
        for name in runs[0]:
            values = [r[name]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / q2 if q2 else 0.0
            bound = bounds.get(name)
            verdict = ""
            if bound:
                verdict = f"  bound {bound}: {'ok' if share < bound / 3 else 'WIDE'}"
                if name != "setup_s":
                    worst = max(worst, share / bound)
            print(f"  {name:16} median {q2:<14.6g} spread {share:.4f}{verdict}")
            if args.verbose:
                print("    " + " ".join(f"{x:.6g}" for x in values))
    print(f"widest spread / bound (setup_s excluded): {worst:.3f}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Run-to-run spread of the benchmark: runs one or more workloads once per
seed, each run a fresh process, and prints every metric's median, quartiles
and quartile spread (Q3 - Q1 over the median) against its bound in
BENCHMARK.json, plus each run's host.ref_ms diagnostic.

    python3 perfbench/spread.py --workloads udf_join --seeds 1 2 3 4 5
    python3 perfbench/spread.py --seeds $(seq 1 10) --trace 0
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("run failed (exit %d): %s" % (proc.returncode,
                                               " ".join(cmd)))
    result = json.loads(lines[-1])
    ref = re.search(r"host\.ref_ms before=(\S+) after=(\S+)", proc.stdout)
    return result, ref.groups() if ref else ("?", "?")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    worst = 0.0
    for workload in args.workloads:
        values = {}
        for seed in args.seeds:
            result, ref = run_once(workload, seed, args.seconds, args.trace)
            print("%s seed=%d host.ref_ms before=%s after=%s %s" % (
                workload, seed, ref[0], ref[1], " ".join(
                    "%s=%.6g" % (k, v["value"])
                    for k, v in result["metrics"].items())), flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for name, vals in values.items():
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / q2 if q2 else 0.0
            bound = bounds.get(name)
            mark = ""
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
                mark = " bound=%.3f %s" % (
                    bound, "ok" if spread < bound / 3 else
                    ("WITHIN" if spread <= bound else "OVER"))
            print("  %-32s median=%-12.6g q1=%-12.6g q3=%-12.6g "
                  "spread=%.4f%s" % (name, q2, q1, q3, spread, mark))
    print("worst spread / bound: %.3f" % worst)


if __name__ == "__main__":
    main()

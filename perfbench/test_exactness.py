#!/usr/bin/env python3
"""Exactness self-test of the benchmark: cold_placement at a small size, run
twice in separate processes per mode, must repeat its counts exactly.

With one connection every count is deterministic, so the test fails if
charged_per_stmt, expr.udf_calls_per_stmt, storage.page_reads_per_stmt or
the plan-cache miss count differ between the two processes by even one.

    python3 perfbench/test_exactness.py
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's own build step)

SCALE = 600
SECONDS = 2
SEED = 7
COUNTS = re.compile(r"^perfbench: counts (.*)$", re.M)


def run_once(binary, trace):
    proc = subprocess.run(
        [binary, "--workload", "cold_placement", "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", str(trace), "--scale",
         str(SCALE), "--trace-dir", os.path.join(run.build_dir(), "traces")],
        stdout=subprocess.PIPE, text=True, timeout=run.RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit("FAIL: cold_placement run exited %d" % proc.returncode)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    counts = dict(kv.split("=") for kv in
                  COUNTS.search(proc.stdout).group(1).split())
    return metrics, counts


def main():
    binary = run.build()
    if binary is None:
        sys.exit("FAIL: build")
    checks = {
        0: ["charged_per_stmt"],
        1: ["expr.udf_calls_per_stmt", "storage.page_reads_per_stmt",
            "serve.plan_cache_misses"],
    }
    failures = []
    for trace, names in checks.items():
        (m1, c1), (m2, c2) = run_once(binary, trace), run_once(binary, trace)
        for name in names:
            a, b = m1[name]["value"], m2[name]["value"]
            print("trace=%d %-30s %r %r" % (trace, name, a, b))
            if a != b:
                failures.append(name)
        for key in ("udf_calls", "page_reads", "plan_cache_misses",
                    "charged"):
            print("trace=%d counts.%-23s %s %s" % (trace, key, c1[key],
                                                   c2[key]))
            if c1[key] != c2[key]:
                failures.append("counts." + key)
        if float(c1["page_reads"]) == 0 or float(c1["udf_calls"]) == 0:
            failures.append("cold_placement read no pages or called no UDF")
    if failures:
        sys.exit("FAIL: counts differ between processes: " +
                 ", ".join(failures))
    print("PASS: cold_placement counts repeat exactly across processes")


if __name__ == "__main__":
    main()

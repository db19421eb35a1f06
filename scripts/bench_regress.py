#!/usr/bin/env python3
"""Bench regression gate: fresh BENCH_*.json vs checked-in baselines.

Usage: bench_regress.py [--fresh DIR] [--baselines DIR] [--update]

Compares every baseline in bench/baselines/ against the BENCH_<name>.json
of the same name in the fresh directory (default: the current directory,
where the check_build.sh smoke runs drop them). Two failure classes:

  * wall regression: a measurement's wall_seconds grew more than 25% over
    baseline. Walls under the 0.05 s floor are skipped — at smoke scales
    scheduler jitter dominates and a relative gate would only flake.
  * exact drift: any change in a measurement's per-function invocation
    counts, output_rows, charged_time or total page reads
    (io.sequential_reads + io.random_reads). These are exact and
    deterministic (the paper's measurement currency), so any delta is a
    real behavior change — a placement flip, a caching bug, a transfer
    regression, a lost row, a scan reading different pages — never noise.
    Page reads are gated on their own so a change in which pages a scan
    reads fails even where the I/O cost weights hide it in charged_time.
    io.buffer_hits stays ungated: it counts pins, which depend on how many
    records a scan reads per pin, not on what the query does.

A third check closes a hole the per-file comparison cannot see: every
baselined bench name must appear in BENCH_summary.json (the aggregate the
smoke run writes from the benches it actually executed). A stale
BENCH_<name>.json left in the fresh directory would otherwise let a
deleted or renamed bench keep passing the gate forever.

Run with --update to rewrite the baselines from the fresh files (after a
deliberate, explained behavior change).
"""

import argparse
import json
import os
import sys

WALL_REGRESSION_LIMIT = 0.25
WALL_FLOOR_SECONDS = 0.05
# Measurement fields that must match the baseline exactly, beside the
# per-function invocation map.
EXACT_FIELDS = ("output_rows", "charged_time", "page_reads")
# Exact fields that depend on wall-clock timing, per (baseline file,
# measurement). introspect_join groups the query log by the 1 s bucket
# each query finished in, so how many buckets it returns varies from run
# to run.
TIMING_DEPENDENT = {
    ("BENCH_introspect.json", "introspect_join"): {"output_rows"},
}


def load(path):
    with open(path) as f:
        return json.load(f)


def page_reads(measurement):
    """Total physical page reads of one measurement, or None without io."""
    io = measurement.get("io")
    if io is None:
        return None
    return io.get("sequential_reads", 0) + io.get("random_reads", 0)


def by_algorithm(bench):
    out = {}
    for m in bench.get("measurements", []):
        out[m["algorithm"]] = dict(m, page_reads=page_reads(m))
    return out


def compare(name, baseline, fresh):
    """Returns a list of failure strings for one bench."""
    failures = []
    base_bars = by_algorithm(baseline)
    fresh_bars = by_algorithm(fresh)

    missing = sorted(set(base_bars) - set(fresh_bars))
    if missing:
        failures.append(f"{name}: measurements vanished: {missing}")
    for algo in sorted(set(fresh_bars) - set(base_bars)):
        print(f"  {name}/{algo}: new measurement (no baseline yet)")

    for algo in sorted(set(base_bars) & set(fresh_bars)):
        base, new = base_bars[algo], fresh_bars[algo]

        base_inv = base.get("invocations", {})
        new_inv = new.get("invocations", {})
        if base_inv != new_inv:
            drift = {
                fn: (base_inv.get(fn), new_inv.get(fn))
                for fn in sorted(set(base_inv) | set(new_inv))
                if base_inv.get(fn) != new_inv.get(fn)
            }
            failures.append(
                f"{name}/{algo}: invocation counts changed "
                f"(baseline, fresh): {drift}")
        timing_dependent = TIMING_DEPENDENT.get((name, algo), set())
        for field in EXACT_FIELDS:
            if field in timing_dependent:
                continue
            if base.get(field) != new.get(field):
                failures.append(
                    f"{name}/{algo}: {field} changed "
                    f"{base.get(field)} -> {new.get(field)}")

        base_wall = base.get("wall_seconds", 0.0)
        new_wall = new.get("wall_seconds", 0.0)
        if base_wall < WALL_FLOOR_SECONDS:
            continue  # Too fast to gate: jitter would dominate.
        if new_wall > base_wall * (1.0 + WALL_REGRESSION_LIMIT):
            failures.append(
                f"{name}/{algo}: wall regression {base_wall:.3f}s -> "
                f"{new_wall:.3f}s "
                f"(+{(new_wall / base_wall - 1.0) * 100.0:.0f}%, "
                f"limit +{WALL_REGRESSION_LIMIT * 100.0:.0f}%)")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fresh", default=".",
                        help="directory holding fresh BENCH_*.json")
    parser.add_argument("--baselines", default="bench/baselines",
                        help="directory holding checked-in baselines")
    parser.add_argument("--update", action="store_true",
                        help="rewrite baselines from the fresh files")
    parser.add_argument("--summary", default=None,
                        help="BENCH_summary.json of the smoke run (default: "
                             "<fresh>/BENCH_summary.json)")
    args = parser.parse_args()

    if not os.path.isdir(args.baselines):
        print(f"no baseline directory {args.baselines}; nothing to gate")
        return 0

    names = sorted(
        f for f in os.listdir(args.baselines)
        if f.startswith("BENCH_") and f.endswith(".json"))
    if not names:
        print(f"no baselines under {args.baselines}; nothing to gate")
        return 0

    failures = []
    compared = 0
    for fname in names:
        fresh_path = os.path.join(args.fresh, fname)
        base_path = os.path.join(args.baselines, fname)
        if not os.path.exists(fresh_path):
            failures.append(
                f"{fname}: baseline exists but the smoke run produced no "
                f"fresh file at {fresh_path}")
            continue
        if args.update:
            with open(fresh_path) as src, open(base_path, "w") as dst:
                dst.write(src.read())
            print(f"  {fname}: baseline updated")
            continue
        failures.extend(compare(fname, load(base_path), load(fresh_path)))
        compared += 1

    if args.update:
        print(f"updated {len(names)} baseline(s)")
        return 0

    # Baselined benches must have actually run: their names must appear in
    # the smoke run's BENCH_summary.json aggregate, or a stale fresh file
    # could mask a deleted/renamed bench indefinitely.
    summary_path = args.summary or os.path.join(args.fresh,
                                                "BENCH_summary.json")
    if os.path.exists(summary_path):
        ran = set(load(summary_path))
        for fname in names:
            bench_name = fname[len("BENCH_"):-len(".json")]
            if bench_name not in ran:
                failures.append(
                    f"{fname}: baselined bench '{bench_name}' missing from "
                    f"{summary_path} — deleted or renamed without "
                    f"re-baselining?")
    else:
        print(f"no {summary_path}; skipped baselined-name membership check")

    if failures:
        print(f"bench regression gate FAILED ({len(failures)} issue(s)):")
        for f in failures:
            print(f"  {f}")
        print("intended change? re-baseline with: "
              "scripts/bench_regress.py --update")
        return 1
    print(f"bench regression gate ok: {compared} bench(es) within limits")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env bash
# Tier-1 verification: configure, build, and run the full test suite.
# The default (RelWithDebInfo) build is configured with
# CMAKE_COMPILE_WARNING_AS_ERROR, so any compiler warning anywhere in the
# tree — src, tests, benches, examples — fails this check. src/obs/ is
# also compiled with -Wall -Wextra -Werror (set in its CMakeLists.txt),
# which holds in the second, Release (-O3) build too; the Release and TSan
# builds do not promote other warnings, because GCC 12 at -O3 reports
# -Wrestrict/-Wmaybe-uninitialized false positives inside libstdc++.
#
# After the tests, a traced query is piped through the SQL shell and the
# dumped Chrome trace-event JSON is validated (with python3's json module
# when available) — the span tracer must emit loadable traces, not just
# pass its unit tests.
#
# The Bloom-filter transfer bench then runs in smoke mode (small
# PPP_SCALE) and its BENCH_transfer.json is validated: the ≥2× UDF
# reduction and result-identity invariants are asserted by the bench's own
# exit code.
#
# The statistics subsystem is smoke-tested through the shell: ANALYZE a
# table, EXPLAIN a query against it, and grep the provenance tag (~stats)
# the plan must now carry. bench_stats then demonstrates the ANALYZE-only
# placement flip (8x fewer expensive invocations, feedback store empty)
# and every BENCH_*.json produced by the smoke runs is aggregated into
# BENCH_summary.json — before the regression gate runs, so the gate can
# verify every baselined bench actually executed.
#
# The plan-lifecycle smoke drives the same query text through the shell
# under two placement algorithms (with an ANALYZE in between): the second
# execution must be flagged as a plan change in \plans, the history must
# be SELECTable as ppp_plan_history, and \audit must report per-operator
# cardinality rows. bench_plans then asserts the end-to-end lifecycle at
# smoke scale: <2% overhead with audit+history on, result/invocation
# parity across {off,on} x {1,4} workers, and the ANALYZE-induced flip
# recorded as two fingerprints for one text_hash with exactly one
# plan.changed tick and one flagged query-log record.
#
# The columnar-execution bench runs in smoke mode too: bench_vector
# asserts the >= 5x cheap-chain speedup of the vectorized fast path and
# exact result/invocation parity across {vectorized off,on} x {1,4}
# workers.
#
# A second pass rebuilds under ThreadSanitizer (-DPPP_SANITIZE=thread) and
# reruns the suite with span tracing forced on (PPP_TRACE_SPANS=1) — the
# parallel predicate evaluator, thread pool, sharded caches, the span
# ring buffer, and ANALYZE's snapshot swap against running queries
# (stats_test's concurrency case) must be race-free, not just
# correct-by-luck. The transfer bench repeats under TSan (transfer
# enabled, 4 workers) so concurrent Bloom probes against the publish/kill
# transitions are race-checked end to end, and bench_vector repeats there
# as well so parallel UDF evaluation over columnar survivors is too. A third
# pass builds under AddressSanitizer + UndefinedBehaviorSanitizer
# (-DPPP_SANITIZE=address,undefined,float-cast-overflow, UB fatal) and runs
# the exec, vector, orderby, transfer, subquery, serve, fuzz, stats,
# cache, types and parallel_exec suites. Skip the sanitizer
# passes with SKIP_TSAN=1 when iterating.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
TSAN_BUILD_DIR="${TSAN_BUILD_DIR:-build-tsan}"
ASAN_BUILD_DIR="${ASAN_BUILD_DIR:-build-asan}"
RELEASE_BUILD_DIR="${RELEASE_BUILD_DIR:-build-release}"

cmake -B "$BUILD_DIR" -S . -DCMAKE_COMPILE_WARNING_AS_ERROR=ON
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

# Release build: -O3 must compile too, with src/obs's -Werror intact. GCC
# 12 at -O3 reports -Werror=restrict false positives on operator+ string
# chains that the default RelWithDebInfo (-O2) build never sees.
cmake -B "$RELEASE_BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$RELEASE_BUILD_DIR" -j "$(nproc)"

# Traced-query smoke test: run a parallel expensive-predicate query with
# spans on, dump the trace, and check the JSON parses.
TRACE_FILE="$BUILD_DIR/check_trace.json"
rm -f "$TRACE_FILE"
"$BUILD_DIR/examples/sql_shell" >/dev/null <<EOF
\\spans on
\\set workers 4
\\set transfer on
SELECT * FROM t3, t10 WHERE t3.ua = t10.ua1 AND costly100(t10.ua);
\\spans dump $TRACE_FILE
\\quit
EOF
[[ -s "$TRACE_FILE" ]] || { echo "span dump missing: $TRACE_FILE" >&2; exit 1; }
if command -v python3 >/dev/null 2>&1; then
  python3 - "$TRACE_FILE" <<'PYEOF'
import json, sys
with open(sys.argv[1]) as f:
    trace = json.load(f)
events = trace["traceEvents"]
assert events, "empty traceEvents"
cats = {e["cat"] for e in events}
for expected in ("query", "frontend", "optimize", "exec"):
    assert expected in cats, f"missing span category {expected}: {sorted(cats)}"
print(f"trace ok: {len(events)} events, categories {sorted(cats)}")
PYEOF
else
  echo "python3 not found; skipped trace JSON validation"
fi

# Transfer bench smoke: the bench itself asserts ≥2× UDF reduction, lower
# wall time, and identical results across {transfer off,on} × {1,4}
# workers, exiting non-zero otherwise.
rm -f BENCH_transfer.json
PPP_SCALE=40 PPP_BENCH_JSON=1 "$BUILD_DIR/bench/bench_transfer"
[[ -s BENCH_transfer.json ]] || {
  echo "missing BENCH_transfer.json" >&2; exit 1;
}
if command -v python3 >/dev/null 2>&1; then
  python3 - BENCH_transfer.json <<'PYEOF'
import json, sys
with open(sys.argv[1]) as f:
    bench = json.load(f)
configs = [m["algorithm"] for m in bench["measurements"]]
for expected in ("off-w1", "off-w4", "on-w1", "on-w4"):
    assert expected in configs, f"missing config {expected}: {configs}"
print(f"BENCH_transfer.json ok: {configs}")
PYEOF
fi

# Statistics smoke test: ANALYZE through the shell, then EXPLAIN a query
# whose selectivity must now come from collected statistics — the plan
# line has to carry the ~stats provenance tag (and ~decl after stats are
# switched back off).
STATS_OUT="$BUILD_DIR/check_stats.out"
"$BUILD_DIR/examples/sql_shell" >"$STATS_OUT" <<EOF
ANALYZE t3;
EXPLAIN SELECT * FROM t3 WHERE t3.a10 = 5 AND costly100(t3.ua);
\\set stats off
EXPLAIN SELECT * FROM t3 WHERE t3.a10 = 5 AND costly100(t3.ua);
\\quit
EOF
grep -q "analyzed t3" "$STATS_OUT" || {
  echo "shell ANALYZE produced no summary" >&2; exit 1;
}
grep -q -- "~stats" "$STATS_OUT" || {
  echo "EXPLAIN after ANALYZE lacks ~stats provenance tag" >&2
  cat "$STATS_OUT" >&2; exit 1;
}
grep -q -- "~decl" "$STATS_OUT" || {
  echo "EXPLAIN with stats off lacks ~decl provenance tag" >&2
  cat "$STATS_OUT" >&2; exit 1;
}
echo "stats smoke ok: ANALYZE + provenance tags present"

# Stats bench smoke: bench_stats asserts the ANALYZE-only placement flip
# (invocations drop by the join fan-out, wall time improves, identical
# results, feedback store empty), exiting non-zero otherwise.
rm -f BENCH_stats.json
PPP_SCALE=40 PPP_BENCH_JSON=1 "$BUILD_DIR/bench/bench_stats"
[[ -s BENCH_stats.json ]] || {
  echo "missing BENCH_stats.json" >&2; exit 1;
}

# Introspection smoke: a query against a base table must leave a
# ppp_query_log row SELECTable through the ordinary SQL path, and \log must
# show it. Both SELECTs print "1 rows;" (the count aggregate row).
INTRO_OUT="$BUILD_DIR/check_introspect.out"
"$BUILD_DIR/examples/sql_shell" >"$INTRO_OUT" <<EOF
SELECT count(*) FROM t3;
SELECT count(*) FROM ppp_query_log;
\\log
\\quit
EOF
[[ "$(grep -c "^1 rows;" "$INTRO_OUT")" -ge 2 ]] || {
  echo "system-table SELECT smoke failed" >&2; cat "$INTRO_OUT" >&2; exit 1;
}
grep -q " logged," "$INTRO_OUT" || {
  echo "\\log printed no query-log summary" >&2
  cat "$INTRO_OUT" >&2; exit 1;
}
echo "introspection smoke ok: ppp_query_log SELECTable, \\log reports"

# One statement, one record: the shell's correlated-IN example runs its
# subquery once per distinct binding, yet a fresh shell must log exactly
# one query for it.
SUBQ_OUT="$BUILD_DIR/check_subquery_log.out"
"$BUILD_DIR/examples/sql_shell" >"$SUBQ_OUT" <<EOF
SELECT t3.a FROM t3 WHERE t3.u10 IN (SELECT u10 FROM t6 WHERE t6.a10 = t3.a10);
\\log
\\quit
EOF
grep -q "^ *1 logged," "$SUBQ_OUT" || {
  echo "subquery statement did not log exactly one query" >&2
  cat "$SUBQ_OUT" >&2; exit 1;
}
echo "subquery log smoke ok: one statement, one ppp_query_log record"

# Introspection bench: asserts <2% query-log overhead on the Q1-Q5 mix,
# runs the analytical ppp_query_log x ppp_plan_history join grouped by
# bucket, and reports the three stores' per-statement cost on point
# EXECUTEs.
rm -f BENCH_introspect.json
PPP_SCALE=40 PPP_BENCH_JSON=1 "$BUILD_DIR/bench/bench_introspect"
[[ -s BENCH_introspect.json ]] || {
  echo "missing BENCH_introspect.json" >&2; exit 1;
}

# Vector bench smoke: bench_vector asserts the >= 5x cheap-chain speedup
# of the columnar fast path and byte-identical results plus exact UDF
# invocation parity across {vectorized off,on} x {1,4} workers, exiting
# non-zero otherwise.
rm -f BENCH_vector.json
PPP_SCALE=40 PPP_BENCH_JSON=1 "$BUILD_DIR/bench/bench_vector"
[[ -s BENCH_vector.json ]] || {
  echo "missing BENCH_vector.json" >&2; exit 1;
}
if command -v python3 >/dev/null 2>&1; then
  python3 - BENCH_vector.json <<'PYEOF'
import json, sys
with open(sys.argv[1]) as f:
    bench = json.load(f)
configs = [m["algorithm"] for m in bench["measurements"]]
for expected in ("chain-scalar", "chain-vector", "udf-off-w1", "udf-off-w4",
                 "udf-on-w1", "udf-on-w4"):
    assert expected in configs, f"missing config {expected}: {configs}"
print(f"BENCH_vector.json ok: {configs}")
PYEOF
fi

# Plan-lifecycle smoke: the same query text twice (ANALYZE between), then
# once more under a different placement algorithm — a real plan change the
# history must flag. The history and audit must answer through the
# ordinary SQL path and through their shell views.
PLANS_OUT="$BUILD_DIR/check_plans.out"
"$BUILD_DIR/examples/sql_shell" >"$PLANS_OUT" <<EOF
SELECT * FROM t3, t10 WHERE t3.ua = t10.ua1 AND costly100(t10.ua);
ANALYZE t10;
SELECT * FROM t3, t10 WHERE t3.ua = t10.ua1 AND costly100(t10.ua);
\\algorithm pushdown
SELECT * FROM t3, t10 WHERE t3.ua = t10.ua1 AND costly100(t10.ua);
SELECT count(*) FROM ppp_plan_history;
\\plans
\\audit 5
\\quit
EOF
grep -q "^1 rows;" "$PLANS_OUT" || {
  echo "SELECT over ppp_plan_history failed" >&2
  cat "$PLANS_OUT" >&2; exit 1;
}
grep -q "CHANGED" "$PLANS_OUT" || {
  echo "\\plans shows no CHANGED flag after the algorithm flip" >&2
  cat "$PLANS_OUT" >&2; exit 1;
}
grep -q "1 change(s)" "$PLANS_OUT" || {
  echo "\\plans footer does not count the plan change" >&2
  cat "$PLANS_OUT" >&2; exit 1;
}
grep -q " audited," "$PLANS_OUT" || {
  echo "\\audit printed no operator-audit summary" >&2
  cat "$PLANS_OUT" >&2; exit 1;
}
echo "plan-lifecycle smoke ok: change flagged, history + audit SELECTable"

# Plan-lifecycle bench: asserts <2% audit+history overhead, off/on parity
# at 1 and 4 workers, and the ANALYZE-induced flip landing in the history
# as two fingerprints with one plan.changed tick and one flagged log row.
rm -f BENCH_plans.json
PPP_SCALE=40 PPP_BENCH_JSON=1 "$BUILD_DIR/bench/bench_plans"
[[ -s BENCH_plans.json ]] || {
  echo "missing BENCH_plans.json" >&2; exit 1;
}

# Serving-layer smoke: two shell sessions over one plan cache. The repeat
# in session 1 and the first run in session 2 must both HIT (cross-session
# sharing); ANALYZE t3 in session 2 must invalidate the cached plan, so
# session 1's next run is a miss and \session reports the invalidation.
SERVE_OUT="$BUILD_DIR/check_serve.out"
"$BUILD_DIR/examples/sql_shell" >"$SERVE_OUT" <<EOF
SELECT * FROM t3, t10 WHERE t3.ua = t10.ua1 AND costly100(t10.ua);
SELECT * FROM t3, t10 WHERE t3.ua = t10.ua1 AND costly100(t10.ua);
\\session new
SELECT * FROM t3, t10 WHERE t3.ua = t10.ua1 AND costly100(t10.ua);
ANALYZE t3;
\\session 1
SELECT * FROM t3, t10 WHERE t3.ua = t10.ua1 AND costly100(t10.ua);
\\session
SELECT count(*) FROM ppp_plan_cache;
SELECT count(*) FROM ppp_sessions;
\\quit
EOF
[[ "$(grep -c "plan cache HIT" "$SERVE_OUT")" -ge 2 ]] || {
  echo "plan cache produced no cross-session hits" >&2
  cat "$SERVE_OUT" >&2; exit 1;
}
grep -q "invalidations=1" "$SERVE_OUT" || {
  echo "ANALYZE did not invalidate the cached plan" >&2
  cat "$SERVE_OUT" >&2; exit 1;
}
[[ "$(grep -c "^1 rows;" "$SERVE_OUT")" -ge 2 ]] || {
  echo "ppp_plan_cache / ppp_sessions not SELECTable" >&2
  cat "$SERVE_OUT" >&2; exit 1;
}
echo "serve smoke ok: cross-session hits, ANALYZE invalidation, system tables"

# Session-knob smoke: \set writes the current session's knobs, and every
# statement path runs under them. A vectorized SELECT first registers the
# exec.vector.* counters; with the columnar path then switched off, a
# PREPARE/EXECUTE must run zero vectorized batches.
KNOB_OUT="$BUILD_DIR/check_knobs.out"
"$BUILD_DIR/examples/sql_shell" >"$KNOB_OUT" <<EOF
SELECT count(*) FROM t10 WHERE t10.u10 < 5;
\\set vector off
\\metrics reset
PREPARE p AS SELECT * FROM t10 WHERE t10.a1 < 500 AND costly100(t10.ua);
EXECUTE p(500);
\\metrics
\\quit
EOF
grep -q "^exec.vector.batches 0$" "$KNOB_OUT" || {
  echo "EXECUTE ignored \\set vector off (want exec.vector.batches 0)" >&2
  cat "$KNOB_OUT" >&2; exit 1;
}
echo "knob smoke ok: PREPARE/EXECUTE runs under the session's \\set vector off"

# Serving bench smoke: bench_serve asserts >= 10x plan-production speedup
# on repeats, >= 3x QPS scaling from 1 to 8 sessions, byte-identical
# results, and exact UDF invocation parity vs plancache off, exiting
# non-zero otherwise.
rm -f BENCH_serve.json
PPP_SCALE=40 PPP_BENCH_JSON=1 "$BUILD_DIR/bench/bench_serve"
[[ -s BENCH_serve.json ]] || {
  echo "missing BENCH_serve.json" >&2; exit 1;
}

# Network server smoke: ppp_server on an ephemeral port, driven by
# ppp_client over real TCP. A plain QUERY, then PREPARE/EXECUTE with two
# distinct literals — the second EXECUTE must ride the family (generic)
# plan-cache entry — then a SHUTDOWN frame, which must drain and stop the
# server (the background process exits on its own).
NET_OUT="$BUILD_DIR/check_net_server.out"
NET_CLIENT_OUT="$BUILD_DIR/check_net_client.out"
PPP_SCALE=40 PPP_PORT=0 "$BUILD_DIR/examples/ppp_server" >"$NET_OUT" &
NET_PID=$!
NET_PORT=""
for _ in $(seq 1 100); do
  NET_PORT="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
    "$NET_OUT")"
  [[ -n "$NET_PORT" ]] && break
  sleep 0.1
done
[[ -n "$NET_PORT" ]] || {
  echo "ppp_server did not come up" >&2; cat "$NET_OUT" >&2
  kill "$NET_PID" 2>/dev/null; exit 1;
}
"$BUILD_DIR/examples/ppp_client" "$NET_PORT" \
  "QUERY SELECT * FROM t3, t10 WHERE t3.ua = t10.ua1 AND costly100(t10.ua);" \
  "PREPARE byrange AS SELECT t3.a FROM t3 WHERE t3.a < \$1;" \
  "EXECUTE byrange(5);" \
  "EXECUTE byrange(7);" \
  "PING" \
  "CLOSE" >"$NET_CLIENT_OUT"
grep -q "hit=1 generic=1" "$NET_CLIENT_OUT" || {
  echo "EXECUTE with a new literal did not hit the family cache" >&2
  cat "$NET_CLIENT_OUT" >&2; kill "$NET_PID" 2>/dev/null; exit 1;
}
grep -q "OK pong" "$NET_CLIENT_OUT" || {
  echo "PING over the socket failed" >&2
  cat "$NET_CLIENT_OUT" >&2; kill "$NET_PID" 2>/dev/null; exit 1;
}
# Concurrent 2-client HIT check: the QUERY above filled the shared plan
# cache, so two clients racing the same statement from fresh connections
# must both ride it (hit=1 on each).
NET_SQL="QUERY SELECT * FROM t3, t10 WHERE t3.ua = t10.ua1 AND costly100(t10.ua);"
"$BUILD_DIR/examples/ppp_client" "$NET_PORT" "$NET_SQL" \
  >"$BUILD_DIR/check_net_c2.out" &
NET_C2=$!
"$BUILD_DIR/examples/ppp_client" "$NET_PORT" "$NET_SQL" \
  >"$BUILD_DIR/check_net_c3.out" &
NET_C3=$!
wait "$NET_C2" && wait "$NET_C3" || {
  echo "concurrent ppp_client run failed" >&2
  kill "$NET_PID" 2>/dev/null; exit 1;
}
grep -q "hit=1" "$BUILD_DIR/check_net_c2.out" \
  && grep -q "hit=1" "$BUILD_DIR/check_net_c3.out" || {
  echo "concurrent clients did not hit the shared plan cache" >&2
  cat "$BUILD_DIR/check_net_c2.out" "$BUILD_DIR/check_net_c3.out" >&2
  kill "$NET_PID" 2>/dev/null; exit 1;
}
"$BUILD_DIR/examples/ppp_client" "$NET_PORT" "SHUTDOWN" >>"$NET_CLIENT_OUT"
wait "$NET_PID" || {
  echo "ppp_server exited non-zero after SHUTDOWN" >&2
  cat "$NET_OUT" >&2; exit 1;
}
grep -q "ppp_server stopped" "$NET_OUT" || {
  echo "ppp_server did not drain on SHUTDOWN" >&2
  cat "$NET_OUT" >&2; exit 1;
}
echo "net smoke ok: QUERY, PREPARE/EXECUTE family hit, concurrent 2-client HIT, PING, SHUTDOWN drain"

# Network bench smoke: bench_server asserts byte-identical results and
# exact UDF parity over TCP, >= 10x prepared-statement plan-production
# speedup, QPS/p50/p99 at 1/4/8/16 clients, and shed-not-hang at 2x queue
# depth, exiting non-zero otherwise.
rm -f BENCH_server.json
PPP_SCALE=40 PPP_BENCH_JSON=1 "$BUILD_DIR/bench/bench_server"
[[ -s BENCH_server.json ]] || {
  echo "missing BENCH_server.json" >&2; exit 1;
}

# Paper-figure smoke: the Q1-Q5 figure benches, Table 1 and the
# ablations A1, A2, A4 and A5 at a small scale. Their baselines pin every
# algorithm's (or variant's) result rows, invocation map and charged time,
# so the regression gate below catches any executor change that alters
# what the paper's measurements bill.
for FIG in fig3_query1 fig4_query2 fig5_query3 fig8_query4 fig9_query5 \
    table1_summary ablation_costmodel ablation_caching ablation_estimate \
    ablation_cacheimpl; do
  rm -f "BENCH_$FIG.json"
  PPP_SCALE=40 PPP_BENCH_JSON=1 "$BUILD_DIR/bench/bench_$FIG" >/dev/null
  [[ -s "BENCH_$FIG.json" ]] || {
    echo "missing BENCH_$FIG.json" >&2; exit 1;
  }
done

# Aggregate every BENCH_*.json the smoke runs produced into one
# BENCH_summary.json keyed by bench name. Runs before the regression gate
# so the gate can check every baselined bench name appears in it.
if command -v python3 >/dev/null 2>&1; then
  python3 - <<'PYEOF'
import glob, json
summary = {}
for path in sorted(glob.glob("BENCH_*.json")):
    if path == "BENCH_summary.json":
        continue
    with open(path) as f:
        bench = json.load(f)
    name = bench.get("bench", path[len("BENCH_"):-len(".json")])
    configs = [m["algorithm"] for m in bench["measurements"]]
    summary[name] = bench
    print(f"  {path}: {configs}")
assert "stats" in summary, f"BENCH_stats.json missing from {sorted(summary)}"
with open("BENCH_summary.json", "w") as f:
    json.dump(summary, f, indent=1)
print(f"BENCH_summary.json ok: {sorted(summary)}")
PYEOF
else
  echo "python3 not found; skipped BENCH_summary.json aggregation"
fi

# Regression gate: fresh smoke BENCH_*.json vs the checked-in baselines.
# Fails on >25% wall regressions (above the 0.05 s jitter floor), any
# drift in invocation counts, output rows, charged time or total page
# reads, or a baselined bench missing from the summary.
# Re-baseline deliberate changes with --update.
if command -v python3 >/dev/null 2>&1; then
  python3 scripts/bench_regress.py
else
  echo "python3 not found; skipped bench regression gate"
fi

if [[ "${SKIP_TSAN:-0}" != "1" ]]; then
  cmake -B "$TSAN_BUILD_DIR" -S . -DPPP_SANITIZE=thread
  cmake --build "$TSAN_BUILD_DIR" -j "$(nproc)"
  PPP_TRACE_SPANS=1 ctest --test-dir "$TSAN_BUILD_DIR" --output-on-failure \
    -j "$(nproc)"
  # Transfer enabled + parallel workers under TSan: concurrent Bloom
  # probes, the filter publish, and the kill-switch CAS all race-checked.
  PPP_SCALE=40 PPP_BENCH_JSON=0 "$TSAN_BUILD_DIR/bench/bench_transfer"
  # Vectorized path under TSan with 4 workers: the UDF phase drives
  # parallel expensive evaluation over columnar survivors. The speedup
  # floor is lifted (sanitizer skews wall ratios); parity still gates.
  PPP_SCALE=40 PPP_BENCH_JSON=0 PPP_VECTOR_MIN_SPEEDUP=1 \
    "$TSAN_BUILD_DIR/bench/bench_vector"
  # Serving layer under TSan: 8 concurrent sessions racing the plan
  # cache, the catalog stats listener, and the shared predicate caches.
  # Wall-ratio floors are lifted (sanitizer skews timings); result
  # identity and UDF invocation parity still gate.
  PPP_SCALE=40 PPP_BENCH_JSON=0 PPP_SERVE_MIN_OPT_SPEEDUP=1 \
    PPP_SERVE_MIN_SCALING=1 "$TSAN_BUILD_DIR/bench/bench_serve"
  # Network server under TSan: up to 16 TCP clients racing the accept
  # loop, reader threads, admission queue, and per-connection write locks
  # (the acceptance bar is clean at 8). The prepared-statement speedup
  # floor is lifted; result identity, UDF parity, and shed-not-hang gate.
  PPP_SCALE=40 PPP_BENCH_JSON=0 PPP_SERVER_MIN_PREP_SPEEDUP=1 \
    "$TSAN_BUILD_DIR/bench/bench_server"
  # AddressSanitizer + UndefinedBehaviorSanitizer over the executor's
  # suites: the pipeline breakers keep row positions into retained column
  # batches, so a stale position or an out-of-range cell read must fail
  # loudly. UB is fatal (-fno-sanitize-recover), not just reported, and
  # libstdc++'s assertions bound-check vector indexing (a reused batch's
  # capacity would hide a stale row index from ASan). GCC's "undefined"
  # group leaves out float-cast-overflow (a double outside the target
  # integer's range), which the value hashes must guard against; it is
  # named explicitly. stats_test runs ANALYZE over such doubles. The §5.1
  # cache key is written from raw column storage (types_test, exec_test)
  # and the memo is probed concurrently (cache_test, parallel_exec_test).
  cmake -B "$ASAN_BUILD_DIR" -S . \
    -DPPP_SANITIZE=address,undefined,float-cast-overflow \
    -DCMAKE_CXX_FLAGS="-fno-sanitize-recover=undefined,float-cast-overflow -D_GLIBCXX_ASSERTIONS"
  ASAN_TESTS=(exec_test vector_test orderby_test transfer_test subquery_test
              serve_test fuzz_test stats_test cache_test types_test
              parallel_exec_test)
  cmake --build "$ASAN_BUILD_DIR" -j "$(nproc)" --target "${ASAN_TESTS[@]}"
  for t in "${ASAN_TESTS[@]}"; do
    "$ASAN_BUILD_DIR/tests/$t" --gtest_brief=1
  done
fi

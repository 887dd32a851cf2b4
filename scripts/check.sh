#!/usr/bin/env bash
# Pre-submit gate: build Release and ThreadSanitizer configurations and run
# the full test suite under both. TSan exercises the DCN_THREADS pool with an
# oversubscribed thread count so scheduling interleavings vary; the
# determinism suites then prove results are still bit-identical.
#
# With --bench, additionally re-runs the fixed micro-kernel set (bench_micro
# --json) and compares ns/op against the committed BENCH_core.json reference.
# Kernels slower than BENCH_TOLERANCE (default 2.0x — the reference numbers
# are machine-relative) produce a warning, never a failure.
#
# Usage: scripts/check.sh [--bench] [extra ctest args...]
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"

BENCH=0
CTEST_ARGS=()
for arg in "$@"; do
  case "$arg" in
    --bench) BENCH=1 ;;
    *) CTEST_ARGS+=("$arg") ;;
  esac
done

echo "== Release build + tests =="
cmake --preset release
cmake --build --preset release -j "$JOBS"
ctest --preset release -j "$JOBS" ${CTEST_ARGS+"${CTEST_ARGS[@]}"}

echo
echo "== Traced benchmarks + Chrome trace schema check =="
# A packet-level and an MS-BFS-heavy run with --trace-out: the traces must be
# valid Chrome trace JSON, show named sim/kernel spans, and (for the scaling
# bench, whose 2500-server sweep spans dozens of chunks) per-thread pool
# lanes. scripts/validate_trace.py asserts all three; stdout is discarded —
# determinism is ctest's job, and --min-speedup=0 keeps this smoke run from
# double-reporting perf (check.sh --bench owns that).
./build/bench/bench_f9_packet_latency --threads=4 \
  --trace-out=build/trace_f9.json > /dev/null
python3 scripts/validate_trace.py build/trace_f9.json \
  --expect-span packetsim/run --expect-span parallel/chunk
# Same benchmark with the flight recorder fully on: sampled packet lanes must
# appear as matched flow events, and the latency-breakdown / FCT /
# time-series sinks must all write. The F9 table itself must stay
# byte-identical to the untraced run (the recorder only observes).
./build/bench/bench_f9_packet_latency --threads=4 > build/f9_plain.txt
./build/bench/bench_f9_packet_latency --threads=4 \
  --flight-sample=0.05 --flight-bucket=50 --latency-breakdown \
  --trace-out=build/trace_f9_flight.json \
  --timeseries-csv=build/f9_timeseries.csv \
  --fct-csv=build/f9_fct.csv \
  --fct-summary=build/f9_fct_summary.txt \
  --stats-json=build/f9_stats.json > build/f9_flight.txt
python3 scripts/validate_trace.py build/trace_f9_flight.json \
  --expect-span packetsim/run --expect-flight
# The telemetry-sketch registries (obs/sketch.h, obs/rollup.h) must export
# schema-valid, internally consistent blocks with the packetsim telemetry
# populated. scripts/validate_stats.py asserts the sketch/rollup invariants
# (counts reconcile, quantiles monotone, level totals agree, each level's
# top-K ordered and bounded by its total).
python3 scripts/validate_stats.py build/f9_stats.json \
  --expect-sketch packetsim/latency --expect-sketch packetsim/slowdown \
  --expect-rollup packetsim/links --expect-rollup packetsim/flows \
  --expect-counter packetsim/runs
if ! diff <(sed -n '/== F9: packet-level/,/^$/p' build/f9_plain.txt) \
          <(sed -n '/== F9: packet-level/,/^$/p' build/f9_flight.txt); then
  echo "error: F9 table changed with the flight recorder enabled" >&2
  exit 1
fi
# F9 is packet-level, so its FCT summary is an empty table; the fluid shuffle
# bench records real completion times and must produce populated quantile
# rows from the bounded sketch (no per-flow CSV needed).
./build/bench/bench_f23_shuffle \
  --fct-summary=build/f23_fct_summary.txt > /dev/null
grep -q '| fluid |' build/f23_fct_summary.txt || {
  echo "error: FCT summary has no fluid rows" >&2; exit 1; }
./build/bench/bench_parallel_scaling --repeats=1 --threads-max=4 \
  --min-speedup=0 --trace-out=build/trace_scaling.json > /dev/null
python3 scripts/validate_trace.py build/trace_scaling.json \
  --expect-span msbfs/batch --expect-span parallel/chunk \
  --expect-thread pool-worker-0
# The health monitor (obs/monitor.h) must export a schema-valid alert log on
# all three sinks: the standalone --alerts-json document, the "alerts" block
# inside --stats-json, and alert instant events in the Chrome trace.
# validate_stats.py additionally proves the fault-free control runs fired
# zero alarms while the faulted runs really fired (--expect-fired).
./build/bench/bench_f24_detection --threads=4 \
  --alerts-json=build/f24_alerts.json \
  --stats-json=build/f24_stats.json \
  --trace-out=build/trace_f24.json > /dev/null
python3 scripts/validate_stats.py build/f24_alerts.json --alerts --expect-fired
python3 scripts/validate_stats.py build/f24_stats.json \
  --expect-counter monitor/runs --expect-counter monitor/alerts_fired \
  --expect-fired
python3 scripts/validate_trace.py build/trace_f24.json --expect-alert

if [ "$BENCH" -eq 1 ]; then
  echo
  echo "== Perf regression check vs BENCH_core.json (warn-only) =="
  extract_micro() {
    grep -o '"name": "[^"]*", "ns_per_op": [0-9]*' "$1" \
      | sed 's/"name": "//; s/", "ns_per_op": / /'
  }
  ./build/bench/bench_micro --json > build/bench_micro_fresh.json
  extract_micro BENCH_core.json > build/bench_ref.txt
  extract_micro build/bench_micro_fresh.json > build/bench_fresh.txt
  awk -v tol="${BENCH_TOLERANCE:-2.0}" '
    NR == FNR { ref[$1] = $2; next }
    { fresh[$1] = $2 }
    END {
      warned = 0
      for (k in ref) {
        if (!(k in fresh)) {
          printf "warning: kernel %s missing from fresh run\n", k; warned = 1
          continue
        }
        r = fresh[k] / ref[k]
        if (r > tol) {
          printf "warning: %s is %.2fx slower than BENCH_core.json (%d vs %d ns/op)\n", \
                 k, r, fresh[k], ref[k]
          warned = 1
        }
      }
      if (!warned) print "bench: all kernels within tolerance of BENCH_core.json"
    }' build/bench_ref.txt build/bench_fresh.txt
fi

echo
echo "== ThreadSanitizer build + tests =="
cmake --preset tsan
cmake --build --preset tsan -j "$JOBS"
# Oversubscribe the pool relative to the host so TSan sees real contention.
DCN_THREADS="${DCN_THREADS_TSAN:-4}" ctest --preset tsan -j "$JOBS" \
  ${CTEST_ARGS+"${CTEST_ARGS[@]}"}

echo
echo "check.sh: all suites passed under Release and TSan."

#!/usr/bin/env bash
# Results gate: runs every F/T table benchmark (bench_f*, bench_t*) of a
# build tree and compares its stdout byte for byte with the committed
# results/<name>.txt. The tables are deterministic at any DCN_THREADS, so a
# difference is a changed figure: regenerate results/ on purpose
# (scripts/regenerate.sh) or fix the change. The whole set runs in seconds.
#
# Usage: scripts/check_results.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
checked=0
failed=0
for bin in "$BUILD"/bench/bench_f* "$BUILD"/bench/bench_t*; do
  [ -f "$bin" ] && [ -x "$bin" ] || continue
  name="$(basename "$bin")"
  golden="results/$name.txt"
  checked=$((checked + 1))
  if [ ! -f "$golden" ]; then
    echo "error: $name has no committed $golden" >&2
    failed=$((failed + 1))
  elif ! "$bin" | cmp -s - "$golden"; then
    echo "error: $name output differs from $golden" >&2
    failed=$((failed + 1))
  fi
done
if [ "$checked" -eq 0 ]; then
  echo "error: no bench_f*/bench_t* binaries under $BUILD/bench" >&2
  exit 1
fi
if [ "$failed" -ne 0 ]; then
  echo "check_results: $failed of $checked tables differ" >&2
  exit 1
fi
echo "check_results: all $checked tables match results/"

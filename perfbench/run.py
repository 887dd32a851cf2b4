#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds
perfbench/ (which compiles the library from src/) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later runs only relink what changed. Build
output goes to stderr. The runner's stdout is passed through, and its last
line (the JSON result) only after its metric names and units were checked
against BENCHMARK.json. A traced run also writes a Chrome trace of its first
traced pass to <build dir>/traces/.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return path if path.is_absolute() else ROOT / path


def build(bdir):
    if not (bdir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(bdir / "CMakeFiles", ignore_errors=True)
            (bdir / "CMakeCache.txt").unlink(missing_ok=True)
            fail("cmake configure failed")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    compile_ = ["cmake", "--build", str(bdir), "--target", "perfbench", "-j", jobs]
    if subprocess.run(compile_, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return bdir / "perfbench"


def expected_metrics(spec, trace):
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    bdir = build_dir()
    binary = build(bdir)
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(seconds), "--trace", str(args.trace),
               "--golden", str(BENCH_DIR / "golden" / f"{args.workload}.txt")]
    if args.trace:
        traces = bdir / "traces"
        traces.mkdir(exist_ok=True)
        command += ["--trace-out",
                    str(traces / f"{args.workload}-seed{args.seed}.trace.json")]
    run = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    if run.returncode != 0:
        fail(f"perfbench exited with code {run.returncode}", run.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(f"last line is not JSON: {lines[-1]!r}")
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    wanted = expected_metrics(spec, args.trace)
    if printed != wanted:
        fail(f"metrics differ from BENCHMARK.json: printed {sorted(printed.items())}, "
             f"expected {sorted(wanted.items())}", 3)
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()

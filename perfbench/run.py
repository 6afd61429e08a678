#!/usr/bin/env python3
"""The repository benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The program is configured and built (CMake,
Release) under $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench;
later runs rebuild only what changed. The last line printed is one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the `end_to_end` metrics
of BENCHMARK.json in an untraced run, its `per_layer` metrics in a traced run.
A per-layer metric of a layer the workload does not reach reads 0; it is never
a time. Exits nonzero, without a result line, when the sources or the build
are missing, and with `correct: false` on any wrong output.
"""

import argparse
import json
import math
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
TIME_UNITS = {"s", "ms", "us", "ns"}
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def die(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (base if base.is_absolute() else ROOT / base) / "perfbench"


def build(build):
    steps = []
    if not (build / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(build), "-j", jobs,
                  "--target", "perfbench"])
    for cmd in steps:
        try:
            subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           check=True, timeout=BUILD_TIMEOUT_S)
        except (subprocess.SubprocessError, OSError) as err:
            die(f"build failed: {err}", 3)


def select(spec, trace, measured):
    """The metrics BENCHMARK.json lists for this mode, from `measured`."""
    selected = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        got = measured.get(m["name"])
        if got is None:
            if not trace or m["unit"] in TIME_UNITS:
                die(f"workload did not measure {m['name']}", 4)
            got = {"value": 0.0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            die(f"{m['name']} measured in {got['unit']}, listed in "
                f"{m['unit']}", 4)
        if not math.isfinite(got["value"]):
            die(f"{m['name']} is not a finite number", 4)
        selected[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return selected


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        die("BENCHMARK.json not found")
    spec = json.loads(spec_path.read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die(f"unknown workload {args.workload}")
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        die("library sources (src/) not found; run from a full checkout")

    out = build_dir()
    build(out)
    cmd = [str(out / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(out / "out")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s", 5)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stdout.write(proc.stdout)
        die(f"perfbench exited {proc.returncode} without a result", 5)
    for line in lines[:-1]:
        print(line)
    correct = bool(result["correct"]) and proc.returncode == 0
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": select(spec, args.trace, result["metrics"]),
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

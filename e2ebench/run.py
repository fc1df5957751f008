#!/usr/bin/env python3
"""Build and run the end-to-end campaign benchmark.

Usage, from the root of a source checkout:

    python3 e2ebench/run.py --workload sweep --seed 1 --seconds 45 --trace 0
    python3 e2ebench/run.py --self-test

The benchmark is compiled from the checkout's sources (Release) into
$CARGO_TARGET_DIR, or .bench_build when that is unset. Build output goes to
standard error; standard output carries the benchmark's report, whose last
line is one JSON object with the keys correct, attempted, failed and
metrics. --self-test runs the benchmark's own checks at tiny size and
compares the metric names and units it prints with BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TARGET = "e2e_campaign"
WORKLOADS = ("sweep", "interleave", "hunt")
# A run measures for --seconds and then finishes its current pass; the
# contract allows 180 s per run.
RUN_TIMEOUT_S = 175


def build_dir() -> Path:
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else Path.cwd() / d


def build() -> Path:
    """Configures (once) and builds the benchmark; returns the binary."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", TARGET,
                  "-j", jobs])
    for cmd in steps:
        # Build chatter must not reach stdout: its last line is the result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"e2ebench: build step failed: {' '.join(cmd)}")
    return out / TARGET


def run_binary(binary: Path, args: list) -> subprocess.CompletedProcess:
    try:
        return subprocess.run([str(binary)] + args, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"e2ebench: {TARGET} {' '.join(args)} timed out")


def last_json(stdout: str) -> dict:
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])


def self_test(binary: Path) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0

    def expect(ok: bool, what: str) -> None:
        nonlocal failures
        print(f"self-test {'ok  ' if ok else 'FAIL'}: {what}")
        failures += 0 if ok else 1

    done = run_binary(binary, ["--self-test"])
    sys.stdout.write(done.stdout)
    expect(done.returncode == 0, "binary self-test")

    declared = {w["name"] for w in spec["workloads"]}
    expect(declared <= set(WORKLOADS),
           "BENCHMARK.json names only workloads the benchmark runs")
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for workload in WORKLOADS:
            done = run_binary(binary, ["--workload", workload, "--seed", "0",
                                       "--seconds", "1", "--trace",
                                       str(trace), "--tiny"])
            try:
                result = last_json(done.stdout)
            except ValueError:
                expect(False, f"{workload} trace {trace} prints a result")
                continue
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            expect(done.returncode == 0 and result["correct"] and
                   result["failed"] == 0,
                   f"{workload} trace {trace} is correct at tiny size")
            expect(got == want,
                   f"{workload} trace {trace} prints every {key} metric "
                   "with its unit")
            printed = all(f"{name} " in done.stdout for name in want)
            expect(printed, f"{workload} trace {trace} prints the metric "
                   "table by name")
    print(f"self-test: {'FAILED' if failures else 'passed'}")
    return 1 if failures else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test(build())
    if args.workload is None or args.seed is None or args.seconds is None:
        ap.error("--workload, --seed and --seconds are required")
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    binary = build()
    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                str(build_dir() / f"spans-{args.workload}.tsv")]
    done = run_binary(binary, cmd)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        return done.returncode
    sys.stdout.write(done.stdout)
    try:
        last_json(done.stdout)
    except ValueError:
        print("e2ebench: the benchmark printed no result line",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds the benchmark binary from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload infer|sgd|chain --seed N --seconds N --trace 0|1

The binary and the repository's libraries are built with CMake into
$CARGO_TARGET_DIR (default .bench_build) under the repository root. The
last line of standard output is the binary's JSON result; a build failure
or a failed run exits non-zero without printing one.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build():
    """Configures and builds the binary; returns its path or None."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(out), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs],
    ]
    for step in steps:
        try:
            result = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                                    stderr=subprocess.STDOUT, text=True,
                                    timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as error:
            log(f"build step {step[:2]} failed: {error}")
            return None
        if result.returncode != 0:
            sys.stderr.write(result.stdout[-4000:])
            log(f"build step {' '.join(step[:2])} exited {result.returncode}")
            return None
    binary = out / "perfbench"
    return binary if binary.exists() else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["infer", "sgd", "chain"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in 1..60")

    binary = build()
    if binary is None:
        return 1

    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        sys.stdout.write(result.stdout)
        log(f"perfbench exited {result.returncode}")
        return 1
    try:
        summary = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(result.stdout)
        log("perfbench printed no result line")
        return 1
    # Human report first, the result object last.
    for line in lines[:-1]:
        print(line)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

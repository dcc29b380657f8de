#!/usr/bin/env python3
"""Builds the perfbench harness from source and runs one workload.

    python3 perfbench/run.py --workload <cold_start|warm_serve|drift_reseal>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
harness and the src/ libraries it links (CMake, Release) into
.bench_build/perfbench; later calls rebuild only what changed. Build
output goes to stderr; the harness's stdout passes through unchanged, so
the last stdout line is the run's JSON result. Snapshots and the traced
run's Chrome trace are written under .bench_build/run.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "run")
# Compiler and harness temporaries stay inside the checkout too.
TMP_DIR = os.path.join(ROOT, ".bench_build", "tmp")
WORKLOADS = ("cold_start", "warm_serve", "drift_reseal")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(env):
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, env=env, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", "4"],
        stdout=sys.stderr, env=env, check=True)
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} not found at {ROOT}: run from a full checkout")
    os.makedirs(TMP_DIR, exist_ok=True)
    env = dict(os.environ, TMPDIR=TMP_DIR)
    try:
        binary = build(env)
    except (OSError, subprocess.CalledProcessError) as err:
        fail(f"build failed: {err}")
    os.makedirs(WORK_DIR, exist_ok=True)
    run = subprocess.run([
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work-dir", WORK_DIR], env=env)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()

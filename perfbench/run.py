#!/usr/bin/env python3
"""Build the EarthBEM benchmark harness from source and run one workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: design_ladder, soil_campaign (see perfbench/README.md).
The first run configures and builds perfbench/ (the library sources under
src/ plus the harness) into .bench_build/perfbench and runs the harness
self-test; later runs rebuild incrementally. Build output goes to stderr, so
the last line of stdout is the harness's JSON result. Exits non-zero when
the build, the self-test or any verdict check fails.
"""
import argparse
import fcntl
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
TRACE_DIR = ROOT / ".bench_traces"
RUN_TIMEOUT_S = 175


def build() -> None:
    BUILD.mkdir(parents=True, exist_ok=True)
    # Keep the compilers' scratch files inside the checkout too.
    scratch = BUILD / "tmp"
    scratch.mkdir(exist_ok=True)
    env = dict(os.environ, TMPDIR=str(scratch))
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD / "CMakeCache.txt").exists():
            configure = ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            subprocess.run(configure, check=True, stdout=sys.stderr, env=env)
        jobs = str(max(1, len(os.sched_getaffinity(0))))
        subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs], check=True, stdout=sys.stderr,
                       env=env)
    subprocess.run([str(BUILD / "ebem_perfbench_selftest")], check=True, stdout=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build or self-test failed: {error}", file=sys.stderr)
        return 2
    command = [str(BUILD / "ebem_perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", args.trace, "--trace-dir", str(TRACE_DIR)]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

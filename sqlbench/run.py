#!/usr/bin/env python3
"""Builds and runs the SQL-level benchmark of CrackStore.

Run from the root of a checkout:

    python3 sqlbench/run.py --workload explore --seed 1 --seconds 20 --trace 0
    python3 sqlbench/run.py --workload all --seed 1      # every workload
    python3 sqlbench/run.py --selfcheck                  # helper self-check

The first call configures and builds the library and the benchmark binary
(Release) under .bench_build/sqlbench; later calls only re-check the build.
Build output goes to stderr. The last line of stdout is the benchmark's
JSON result. Workloads, metrics and their units are
listed in BENCHMARK.json at the root of the repository.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

# The workloads BENCHMARK.json lists, which "all" runs.
WORKLOADS = ["explore", "conjunct", "mixed_txn"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build(build_dir: Path, target: str) -> None:
    src = Path(__file__).resolve().parent
    jobs = str(min(4, os.cpu_count() or 1))
    configured = any((build_dir / f).exists()
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        cmd = ["cmake", "-S", str(src), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(build_dir), "--target", target,
                    "-j", jobs], check=True, stdout=sys.stderr,
                   timeout=BUILD_TIMEOUT_S)


def run_workload(build_dir: Path, workload: str, seed: int, seconds: int,
               trace: int) -> int:
    cmd = [str(build_dir / "sqlbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out-dir", str(build_dir / "out")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"sqlbench: {workload} did not finish in {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload",
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args()
    if not args.selfcheck and args.workload is None:
        ap.error("--workload or --selfcheck is required")

    build_dir = Path(".bench_build") / "sqlbench"
    target = "sqlbench_selfcheck" if args.selfcheck else "sqlbench"
    try:
        build(build_dir, target)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        print(f"sqlbench: build failed: {e}", file=sys.stderr)
        return 1

    if args.selfcheck:
        return subprocess.run([str(build_dir / target)]).returncode
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    rc = 0
    for w in workloads:
        rc = run_workload(build_dir, w, args.seed, args.seconds, args.trace) or rc
    return rc


if __name__ == "__main__":
    sys.exit(main())

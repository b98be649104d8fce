#!/usr/bin/env python3
"""Build and run the simulator host-speed benchmark.

    python3 hostbench/run.py --workload vector_t --seed 1 --seconds 55 --trace 0

Configures this directory's CMake package (which builds the simulator
libraries from src/) into the build directory -- $CARGO_TARGET_DIR when
set, else .bench_build, relative to the repository root -- builds the
hostbench binary there and runs it. The binary prints a summary and, as
the last line of standard output, the JSON result; its exit status is
passed through. Build output goes to standard error. With --trace 1 the
spans are written to <build dir>/spans/<workload>-seed<seed>.json.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="scalar_ev8, vector_t or cmp_t")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    build = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    tmp = build / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))

    def step(cmd, **kwargs):
        return subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              **kwargs).returncode == 0

    jobs = str(min(4, os.cpu_count() or 1))
    if not (build / "CMakeCache.txt").exists() and not step(
            ["cmake", "-S", str(BENCH), "-B", str(build)]):
        print("hostbench: configure failed", file=sys.stderr)
        return 2
    if not step(["cmake", "--build", str(build), "--target", "hostbench",
                 "-j", jobs]):
        print("hostbench: build failed", file=sys.stderr)
        return 2

    cmd = [str(build / "hostbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--golden", str(ROOT / "tests" / "golden_stats.json")]
    if args.trace:
        (build / "spans").mkdir(exist_ok=True)
        cmd += ["--spans", str(build / "spans" /
                               f"{args.workload}-seed{args.seed}.json")]
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"hostbench: no result within {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

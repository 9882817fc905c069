"""Run one benchmark workload in a fresh Python process.

    python3 perfbench/run.py --workload roi --seed 1 --seconds 40 --trace 0

Pins every BLAS/OpenMP pool to ``THREADS`` before numpy is ever imported,
then starts ``worker.py`` with the same arguments and waits for it.  The
worker's standard output passes through; its last line is the JSON result.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

from stats import THREAD_VARS  # numpy-free: nothing is imported before pinning

# one thread on every commit: results are compared only under the same count
# (rel_error moves in the 5th digit and small BLAS calls slow down with two)
THREADS = 1
# a run must end within 180 s; the worker is stopped a little before that
TIMEOUT_S = 170
WORKLOADS = ("roi", "full")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    env = dict(os.environ)
    env.update({var: str(min(THREADS, os.cpu_count() or 1)) for var in THREAD_VARS})
    worker = Path(__file__).resolve().parent / "worker.py"
    cmd = [sys.executable, str(worker), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        return subprocess.run(cmd, env=env, timeout=TIMEOUT_S).returncode or 0
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} did not finish within {TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload roi --seeds 1-10 --seconds 40

Each run goes through ``run.py`` (a fresh process per seed, one at a time).
Prints, per metric, the median and the interquartile distance as a share of
the median (``statistics.quantiles(values, n=4)``), and saves every run's
JSON result to ``--out`` when given.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from stats import median, quartile_spread

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(p) for p in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(p) for p in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="'a-b' or 'a,b,c'")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--out", help="file to save the JSON results in")
    args = parser.parse_args(argv)

    results = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1))
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        spread = quartile_spread(values) if len(values) > 1 and median(values) else float("nan")
        print(f"{name}: median {median(values):.6g}, quartile spread {spread:.4f}")
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())

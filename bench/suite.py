#!/usr/bin/env python3
"""Run every workload, each in its own fresh process, and print the metrics.

    python3 bench/suite.py --seed 7                # one set, end-to-end metrics
    python3 bench/suite.py --seed 7 --trace        # also the traced per-layer run
    python3 bench/suite.py --seed 7 --sets 2       # steadiness: two sets, spreads

Each run is ``bench/run.py --workload <w> --seed <seed> --seconds <s>``; the
seed is the only input passed on, and run.py makes the workload's inputs
from it. With --sets 2 or more the spread of each end-to-end metric, the
largest relative distance of a later set from the first, is printed next to
the bound that BENCHMARK.json fixes for it. The exit code is 1 when an
operation fails, a check fails, or a spread exceeds its bound.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _print_result(workload: str, result: dict) -> None:
    print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    for name, m in result["metrics"].items():
        print(f"  {name:<32} {m['value']:>16.6g} {m['unit']}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--trace", action="store_true", help="add one traced run per workload")
    args = parser.parse_args(argv)

    workloads = [w["name"] for w in spec["workloads"]]
    ok = True
    sets = []
    for index in range(args.sets):
        results = {}
        for workload in workloads:
            results[workload] = run_one(workload, args.seed, args.seconds, 0)
            print(f"[set {index + 1}] ", end="")
            _print_result(workload, results[workload])
            ok &= results[workload]["correct"] and results[workload]["failed"] == 0
        sets.append(results)
    if args.trace:
        for workload in workloads:
            result = run_one(workload, args.seed, args.seconds, 1)
            print("[traced] ", end="")
            _print_result(workload, result)
            ok &= result["correct"] and result["failed"] == 0

    if len(sets) > 1:
        print(f"\nspread over {len(sets)} sets (largest |later - first| / first) against bound:")
        for workload in workloads:
            for metric in spec["end_to_end"]:
                values = [s[workload]["metrics"][metric["name"]]["value"] for s in sets]
                spread = max(abs(v - values[0]) for v in values[1:]) / abs(values[0])
                within = spread <= metric["bound"]
                ok &= within
                print(f"  {workload:<11} {metric['name']:<14} spread {spread:8.4f}  "
                      f"bound {metric['bound']:.2f}  {'within' if within else 'OUTSIDE'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

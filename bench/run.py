#!/usr/bin/env python3
"""Run one benchmark workload in this process and print its metrics.

    python3 bench/run.py --workload headline --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository: the package is imported from its
src/ and the output checks use tests/oracles.py. BLAS is pinned to one
thread. The job is repeated, whole passes only, until --seconds have gone.

--trace 0 reports the end-to-end metrics with tracing off: setup_s (median
of fresh-process set-ups), job_s (median pass), steps_per_s and
peak_alloc_mb (tracemalloc peak of one untimed pass). --trace 1 alternates
plain and traced passes and reports the per-layer metrics of the traced
ones, with trace.overhead_s = traced job_s - plain job_s; the spans of the
last traced pass go to bench/out/spans-<workload>.csv.

The checks run after timing. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("headline", "grid_sweep", "zeno_deep")
# Set-ups measured per run: this process plus fresh child processes.
SETUP_SAMPLES = 7


def _use_checkout() -> None:
    needed = (ROOT / "src" / "zenodisc" / "__init__.py", ROOT / "tests" / "oracles.py")
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        sys.exit(f"bench: {', '.join(missing)} not found; run from a checkout of the repository")
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]


def set_up(name: str, seed: int):
    """Import the package, make and parse the inputs, warm up; return (workload, seconds)."""
    t0 = time.perf_counter()
    import workloads

    wl = workloads.make(name, seed)
    wl.parse()
    wl.warm_up()
    return wl, time.perf_counter() - t0


def _setup_in_child(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--probe-setup"],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def _timed_pass(wl, out_dir: Path):
    gc.collect()
    t0 = time.perf_counter()
    result = wl.job(out_dir)
    return time.perf_counter() - t0, result


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, result) -> None:
        self.attempted += result.operations
        self.failed += result.failed


def measure_plain(wl, out_dir: Path, seconds: float, seed: int, setup0: float):
    setups = [setup0] + [_setup_in_child(wl.name, seed) for _ in range(SETUP_SAMPLES - 1)]
    tally, times = Tally(), []
    deadline = time.perf_counter() + seconds
    while not times or time.perf_counter() < deadline:
        elapsed, result = _timed_pass(wl, out_dir)
        times.append(elapsed)
        tally.add(result)
    gc.collect()
    tracemalloc.start()
    try:
        wl.job(out_dir)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    job_s = statistics.median(times)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "job_s": (job_s, "s"),
        "steps_per_s": (wl.steps / job_s, "steps/s"),
        "peak_alloc_mb": (peak / 1e6, "MB"),
    }
    print(f"{wl.name}: {len(times)} passes, {wl.steps} requested steps per pass", file=sys.stderr)
    return metrics, tally, result


def measure_traced(wl, out_dir: Path, seconds: float):
    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    tally, plain, traced, per_pass = Tally(), [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        elapsed, result = _timed_pass(wl, out_dir)
        plain.append(elapsed)
        tally.add(result)
        tracer.reset()
        tracer.install()
        try:
            wl.parse()
            elapsed, result = _timed_pass(wl, out_dir)
        finally:
            tracer.uninstall()
        traced.append(elapsed)
        tally.add(result)
        per_pass.append(layer_metrics(tracer))
    tracer.write(OUT / f"spans-{wl.name}.csv")
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    print(f"{wl.name}: {len(plain)} plain and {len(traced)} traced passes", file=sys.stderr)
    return {name: (value, _unit(name)) for name, value in metrics.items()}, tally, result


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith(".steps"):
        return "steps"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _use_checkout()
    wl, setup0 = set_up(args.workload, args.seed)
    if args.probe_setup:
        print(repr(setup0))
        return 0

    OUT.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if args.trace:
            metrics, tally, result = measure_traced(wl, out_dir, args.seconds)
        else:
            metrics, tally, result = measure_plain(wl, out_dir, args.seconds, args.seed, setup0)
        sys.path.insert(0, str(ROOT / "tests"))
        import checks

        items = checks.CHECKS[wl.name](wl, result.outputs).items
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    bad = [(name, detail) for name, ok, detail in items if not ok]
    for name, detail in bad:
        print(f"check failed: {name}: {detail}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{wl.name} {name} = {value!r} {unit}")
    print(f"{wl.name} operations: attempted {tally.attempted + len(items)}, "
          f"failed {tally.failed + len(bad)} ({len(items)} checks)")
    print(json.dumps({
        "correct": not bad,
        "attempted": tally.attempted + len(items),
        "failed": tally.failed + len(bad),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark workloads: inputs made from a seed, the job that is timed,
and the amount of work the job's answer asks for.

A workload is set up by ``parse`` (read its configs, build its parameter
points) and ``warm_up`` (one protocol evaluation); ``job`` is one full pass,
outputs written under the directory it is given. ``steps`` is the sum of k
over every (point, ledger) result the answer asks for, counted once per
distinct result, so it stays fixed whatever the engine does to produce it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from pathlib import Path

from zenodisc import cli, protocol
from zenodisc.protocol import Mode, ProtocolParams

# The overlap-exponent column of a sweep fits the final overlap on this delta
# grid at every (b, dt, k, xi) of the sweep, in the exact ledger.
EXPONENT_DELTAS = (1e-2, 10 ** -2.5, 1e-3)


@dataclass
class PassResult:
    """What one pass produced: its operation counts and outputs for the checks."""

    operations: int
    failed: int
    outputs: dict


def _config_text(mode: str, **grids) -> str:
    lines = [f"{key}={','.join(repr(v) for v in vals)}" for key, vals in grids.items()]
    return "\n".join(lines + [f"mode={mode}"]) + "\n"


def _sweep_steps(b_grid, deltas, dts, ks, xis, ledgers) -> set[tuple]:
    """(b, delta, dt, k, xi, ledger) of every sweep row and its exponent fit."""
    return (set(product(b_grid, deltas, dts, ks, xis, ledgers))
            | set(product(b_grid, EXPONENT_DELTAS, dts, ks, xis, ("exact",))))


def _sweep_pass(rows) -> tuple[int, int]:
    return len(rows), sum(1 for r in rows if r.error)


class Headline:
    """The reference study of scripts/adjudicate.py, run back to back.

    Its inputs are the fixed reference fixture, so the seed changes nothing.
    """

    name = "headline"
    FIXTURE = "b=10\ndelta=0.01,0.001\ndt=auto\nk=1,5,20\nxi=0.5\nmode=both\n"
    SCALING = "b=10\ndelta=0.01,0.0031622776601683794,0.001\ndt=auto\nk=1,5,20\nxi=0.5\n"

    def __init__(self, seed: int):
        keys = _sweep_steps((10.0,), (0.01, 0.001), ("auto",), (1, 5, 20), (0.5,),
                            ("exact", "paper"))
        keys |= set(product((10.0,), (0.01, 0.0031622776601683794, 0.001), ("auto",),
                            (1, 5, 20), (0.5,), ("exact",)))
        self.steps = sum(key[3] for key in keys)

    def parse(self) -> None:
        self.sweep_config = cli.parse_config(self.FIXTURE)
        self.scaling_config = cli.parse_config(self.SCALING)

    def warm_up(self) -> None:
        protocol.run(ProtocolParams.from_b(10.0, 0.01, 1))

    def job(self, out_dir: Path) -> PassResult:
        rows = cli.run_sweep(self.sweep_config)
        csv_path, _ = cli.emit_report(rows, str(out_dir / "headline"))
        fits = cli.scaling_study(self.scaling_config, "all")
        scaling_path = out_dir / "scaling.csv"
        scaling_path.write_text(cli.render_scaling_csv(fits), encoding="utf-8", newline="")
        ops, failed = _sweep_pass(rows)
        return PassResult(ops + len(fits), failed,
                          {"rows": rows, "fits": fits, "csv": csv_path})


class GridSweep:
    """A wide seeded Cartesian sweep with explicit dt, both ledgers and priors.

    The seed draws b, delta, dt and the priors; the k grid is fixed, so every
    seed asks for the same number of steps. b in [2, 40] and delta in
    [10^-3.5, 10^-2] keep |b delta| <= 0.4 and the exponent grid valid, so
    every point evaluates.
    """

    name = "grid_sweep"
    K = (2, 16, 100)

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(f"grid_sweep:{seed}")
        self.b = sorted(rng.uniform(2.0, 40.0) for _ in range(3))
        self.delta = sorted(10 ** rng.uniform(-3.5, -2.0) for _ in range(2))
        self.dt = sorted(rng.uniform(0.05, 1.5) for _ in range(2))
        self.xi = sorted(rng.uniform(0.1, 0.9) for _ in range(2))
        self.text = _config_text("both", b=self.b, delta=self.delta, dt=self.dt, k=self.K,
                                 xi=self.xi)
        self.steps = sum(key[3] for key in _sweep_steps(
            self.b, self.delta, self.dt, self.K, self.xi, ("exact", "paper")))

    def parse(self) -> None:
        self.config = cli.parse_config(self.text)

    def warm_up(self) -> None:
        protocol.run(ProtocolParams.from_b(self.b[0], self.delta[0], self.K[0], dt=self.dt[0],
                                           prior=self.xi[0]))

    def job(self, out_dir: Path) -> PassResult:
        rows = cli.run_sweep(self.config)
        csv_path, _ = cli.emit_report(rows, str(out_dir / "grid"))
        ops, failed = _sweep_pass(rows)
        return PassResult(ops, failed, {"rows": rows, "csv": csv_path})


class ZenoDeep:
    """Many close probes at fixed total time T = k dt, plus a scalar optimize.

    protocol.run at k = 10^2, 10^3, 10^4 with dt = T / k on both ledgers, then
    cli.optimize at k = 50 in the exact ledger over a dt bracket of fixed
    width centred on T / 50, seeded with its two ends and two inner points.
    The fixed width keeps the golden-section iteration count the same for
    every seed.
    """

    name = "zeno_deep"
    KS = (100, 1000, 10000)
    OPT_K = 50
    OPT_WIDTH = 0.02

    def __init__(self, seed: int):
        rng = random.Random(f"zeno_deep:{seed}")
        self.b = rng.uniform(5.0, 20.0)
        self.delta = 10 ** rng.uniform(-3.0, -2.5)
        self.T = rng.uniform(1.5, 2.5)
        self.xi = rng.uniform(0.3, 0.7)
        lo = self.T / self.OPT_K - self.OPT_WIDTH / 2
        self.opt_dt = [lo] + sorted(lo + rng.uniform(0.0, self.OPT_WIDTH) for _ in range(2)) \
            + [lo + self.OPT_WIDTH]
        self.text = _config_text("exact", b=[self.b], delta=[self.delta], dt=self.opt_dt,
                                 k=[self.OPT_K], xi=[self.xi])
        self.steps = 2 * sum(self.KS) + (len(self.opt_dt) + 1) * self.OPT_K

    def parse(self) -> None:
        self.config = cli.parse_config(self.text)
        self.points = [ProtocolParams.from_b(self.b, self.delta, k, dt=self.T / k,
                                             prior=self.xi, mode=mode)
                       for k in self.KS for mode in (Mode.EXACT, Mode.PAPER)]

    def warm_up(self) -> None:
        protocol.run(self.points[0])

    def job(self, out_dir: Path) -> PassResult:
        reports = [protocol.run(p) for p in self.points]
        opt_params, opt_row = cli.optimize(self.config, Mode.EXACT)
        csv_path, _ = cli.emit_report([opt_row], str(out_dir / "optimum"))
        return PassResult(len(reports) + 1, 1 if opt_row.error else 0,
                          {"reports": reports, "optimum": (opt_params, opt_row),
                           "csv": csv_path})


WORKLOADS = {w.name: w for w in (Headline, GridSweep, ZenoDeep)}


def make(name: str, seed: int):
    return WORKLOADS[name](seed)


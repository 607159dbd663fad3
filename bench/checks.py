"""Checks on a workload's outputs, run once after timing.

Every number is checked against something computed apart from the package:
the dense Pade-exponential walk ``tests/oracles.naive_run``, closed forms, or
a property the method must have. Nothing is compared with a stored copy of
earlier output. Each check is one operation; a failed check is a failed
operation.
"""

from __future__ import annotations

import csv
import math
import random

import oracles

EPS = 2.0 ** -52
# Gap allowed to the oracle walk: both round at ~1e-16 per step, and the two
# evolution routes (closed eigensystem, dense expm) differ at ~1e-13; k is at
# most 10^4.
ORACLE_REL = 1e-9
# Closed forms evaluated from the same inputs differ only in rounding.
CLOSED_REL = 1e-12
# Rows of grid_sweep walked again by the oracle, half of them per ledger.
GRID_SAMPLE = 24


class Checks:
    def __init__(self):
        self.items: list[tuple[str, bool, str]] = []

    def expect(self, name: str, ok: bool, detail: str = "") -> None:
        self.items.append((name, bool(ok), detail))

    def close(self, name: str, got, want: float, rel: float, abs_tol: float = 1e-300) -> None:
        ok = got is not None and abs(got - want) <= rel * abs(want) + abs_tol
        self.expect(name, ok, f"got {got!r}, want {want!r}, tol {rel:g} rel + {abs_tol:g}")


def _tag(row) -> str:
    return f"{row.mode} b={row.b!r} delta={row.delta!r} dt={row.dt!r} k={row.k} xi={row.xi!r}"


def _closed_forms(c: Checks, row) -> None:
    """Baselines and the idealized total from their closed forms; the floor."""
    tag = _tag(row)
    bd2 = (row.b * row.delta) ** 2
    c.close(f"baseline_paper {tag}", row.baseline_paper, oracles.helstrom_inline(row.xi, bd2),
            CLOSED_REL)
    c.close(f"baseline_exact {tag}", row.baseline_exact,
            oracles.helstrom_inline(row.xi, bd2 ** 2), CLOSED_REL)
    c.close(f"paper_new_cost {tag}", row.paper_new_cost,
            row.k * (1.0 - bd2) * row.dt ** 2 * row.delta ** 2 / 4.0, CLOSED_REL)
    if row.mode == "exact":
        # The instrument followed by a Bayes decision is itself a POVM, so it
        # cannot beat Helstrom; the slack covers rounding of the summed total.
        c.expect(f"helstrom floor {tag}",
                 row.total_cost >= row.baseline_exact * (1.0 - CLOSED_REL),
                 f"total {row.total_cost!r} < baseline_exact {row.baseline_exact!r}")


def _against_oracle(c: Checks, row) -> None:
    """Total and final overlap from the oracle walk; for the paper ledger also
    total = (1 - P(survive)) / 2 with the oracle's cumulative survival."""
    tag = _tag(row)
    paper = row.mode == "paper"
    ref = oracles.naive_run(row.b, row.delta, row.k, row.dt, xi=row.xi, paper_ledger=paper)
    c.close(f"oracle total {tag}", row.total_cost, ref["total"], ORACLE_REL)
    c.close(f"oracle final_overlap {tag}", row.final_overlap, ref["final_overlap"], ORACLE_REL)
    if paper:
        s0, s1 = ref["cumulative_survival"]
        survived = row.xi * s0 + (1.0 - row.xi) * s1
        # 1 - survived cancels: the survived mass is a product of k factors,
        # each rounded at EPS, so it is known to (k + 1) EPS absolute only.
        c.close(f"oracle survival {tag}", row.total_cost, (1.0 - survived) / 2.0, ORACLE_REL,
                abs_tol=(row.k + 1) * EPS)


def _csv_round_trip(c: Checks, rows, path) -> None:
    with open(path, newline="", encoding="utf-8") as fh:
        written = [float(r["total_cost"]) for r in csv.DictReader(fh)]
    want = sorted(r.total_cost for r in rows)
    c.expect(f"csv totals {path.name}", sorted(written) == want,
             f"{len(written)} written totals differ from {len(want)} rows")


def _row_checks(c: Checks, rows, oracle_rows) -> None:
    for row in rows:
        c.expect(f"row evaluated {_tag(row)}", not row.error, row.error)
        if not row.error:
            _closed_forms(c, row)
    for row in oracle_rows:
        if not row.error:
            _against_oracle(c, row)


def check_headline(wl, out: dict) -> Checks:
    c = Checks()
    rows = out["rows"]
    _row_checks(c, rows, rows)
    _csv_round_trip(c, rows, out["csv"])
    for fit in out["fits"]:
        b, k, xi = fit["b"], fit["k"], fit["xi"]
        deltas = [float(v) for v in fit["deltas"].split(";")]
        residuals = [float(v) for v in fit["residuals"].split(";")]
        for d, r in zip(deltas, residuals):
            tag = f"scaling {fit['quantity']} b={b!r} delta={d!r} k={k}"
            bd = b * d
            if fit["quantity"] == "final_overlap":
                dt = b / (2.0 * k * math.sqrt(1.0 - bd * bd))
                ref = oracles.naive_run(b, d, k, dt, xi=xi)["final_overlap"]
                c.close(f"oracle {tag}", r, ref, ORACLE_REL)
            elif fit["quantity"] == "baseline":
                want = abs(oracles.helstrom_inline(xi, bd * bd) - bd * bd / 4.0)
                c.close(tag, r, want, 1e-9)
    return c


def check_grid_sweep(wl, out: dict) -> Checks:
    c = Checks()
    rows = out["rows"]
    rng = random.Random(f"grid_sweep-check:{wl.seed}")
    sample = [row for mode in ("exact", "paper")
              for row in rng.sample([r for r in rows if r.mode == mode], GRID_SAMPLE // 2)]
    _row_checks(c, rows, sample)
    _csv_round_trip(c, rows, out["csv"])
    for row in rows:
        c.expect(f"overlap exponent {_tag(row)}",
                 row.overlap_exponent is not None and math.isfinite(row.overlap_exponent),
                 f"exponent {row.overlap_exponent!r}")
    return c


def check_zeno_deep(wl, out: dict) -> Checks:
    c = Checks()
    for report in out["reports"]:
        p = report.params
        tag = f"zeno {p.mode.value} k={p.k}"
        paper = p.mode.value == "paper"
        ref = oracles.naive_run(p.b, p.delta, p.k, p.dt, p.e0, p.e1, p.prior, paper_ledger=paper)
        c.close(f"oracle total {tag}", report.total_cost, ref["total"], ORACLE_REL)
        c.close(f"oracle final_overlap {tag}", report.final_overlap, ref["final_overlap"],
                ORACLE_REL)
        for h in (0, 1):
            c.close(f"oracle survival h{h} {tag}", report.survival_trajectory[-1][h],
                    ref["cumulative_survival"][h], ORACLE_REL)
        # A product of k factors each rounded at EPS.
        mass = math.fsum(leaf.marginal for leaf in report.leaves)
        c.expect(f"leaf mass {tag}", abs(mass - 1.0) <= 2 * (p.k + 1) * EPS,
                 f"sum of leaf marginals - 1 = {mass - 1.0:.3e}")
        if not paper:
            c.expect(f"helstrom floor {tag}",
                     report.total_cost >= report.baseline_exact * (1.0 - CLOSED_REL))
            # Misra-Sudarshan limit at fixed T = k dt: k (1 - P(survive)) ->
            # a^2 delta^2 T^2 / 2. Allowed: the O((delta T)^2) truncation plus
            # k times the rounding of the survival product.
            total_time = p.k * p.dt
            limit = p.a ** 2 * p.delta ** 2 * total_time ** 2 / 2.0
            got = p.k * (1.0 - report.leaves[-1].marginal)
            allow = limit * (p.delta * total_time) ** 2 + 2 * p.k * p.k * EPS
            c.expect(f"zeno limit {tag}", abs(got - limit) <= allow,
                     f"k(1-P) = {got!r}, limit {limit!r}, allowed gap {allow:.3e}")
    params, row = out["optimum"]
    _row_checks(c, [row], [row])
    for dt in wl.opt_dt:
        seed_cost = oracles.naive_run(wl.b, wl.delta, wl.OPT_K, dt, xi=wl.xi)["total"]
        c.expect(f"optimum no worse than seed dt={dt!r}",
                 row.total_cost <= seed_cost * (1.0 + ORACLE_REL),
                 f"optimum {row.total_cost!r} > oracle {seed_cost!r}")
    c.expect("optimum inside the dt bracket", min(wl.opt_dt) <= params.dt <= max(wl.opt_dt),
             f"dt {params.dt!r}")
    _csv_round_trip(c, [row], out["csv"])
    return c


CHECKS = {"headline": check_headline, "grid_sweep": check_grid_sweep,
          "zeno_deep": check_zeno_deep}

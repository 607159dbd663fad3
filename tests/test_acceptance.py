"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines on the terminal. Every tolerance is pinned here, not configurable.
"""

import math

import numpy as np
import pytest

from zenodisc import cli, helstrom, protocol, series
from zenodisc.protocol import ProtocolParams

import oracles

FIXTURE = """\
b=10
delta=0.01,0.001
dt=auto
k=1,5,20
xi=0.5
mode=both
"""

DELTA_GRID = series.DEFAULT_DELTAS


def _criterion(number: int, description: str, ok: bool, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {number}: {verdict} - {description}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {number} failed: {description} {detail}"


def random_params(rng) -> tuple[ProtocolParams, tuple[float, float]]:
    """Random valid params, and random level energies (e0, e1) for the oracle
    walk, which the package has no input for."""
    delta = rng.uniform(1e-4, 0.2)
    bd = rng.uniform(0.0, 0.9)
    k, dt = int(rng.integers(1, 9)), rng.uniform(0.1, 3.0)
    energies = (rng.uniform(-2, 3), rng.uniform(-2, 3))
    p = ProtocolParams.from_b(b=bd / delta, delta=delta, k=k, dt=dt,
                              prior=rng.uniform(0.05, 0.95))
    return p, energies


def test_criterion_1_quadratic_baseline_from_cli(capsys):
    # baseline must report the closed-form cost, which equals b^2 delta^2 / 4
    # up to its known fourth-order remainder (b^2 delta^2)^2 / 16; what is
    # left beyond that remainder must fit inside 5e-7.
    code = cli.main(["baseline", "--b", "10", "--delta", "0.01", "--xi", "0.5"])
    out = capsys.readouterr().out
    assert code == 0
    reported = None
    for line in out.splitlines():
        if line.startswith("baseline_paper"):
            reported = float(line.split("=")[1])
    assert reported is not None
    x = (10 * 0.01) ** 2
    closed = 0.5 * (1 - math.sqrt(1 - x))
    gap_beyond_quartic = abs(reported - (0.25 * x + x**2 / 16))
    _criterion(1, "quadratic form of the paper-convention baseline",
               abs(reported - closed) <= 1e-15 and gap_beyond_quartic <= 5e-7,
               f"reported={reported!r}, remainder={gap_beyond_quartic:.3e}")


def test_criterion_2_cost_ratio_identity():
    worst = 0.0
    for k in (1, 5, 20):
        for delta in DELTA_GRID:
            for b in (5.0, 10.0):
                p = ProtocolParams.from_b(b, delta, k)  # dt = b / (2 k a)
                ratio = series.original_cost(p) / protocol.total_cost_paper_mode(p)
                worst = max(worst, abs(ratio / (4 * k) - 1.0))
    _criterion(2, "original/new cost ratio equals 4k on the 3x3x2 grid",
               worst <= 1e-12, f"worst relative error {worst:.3e}")


def test_criterion_3_exact_click_probability():
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(100):
        p, _ = random_params(rng)
        click = protocol.run(p).leaves[0].p_given_h0  # the first click leaf
        worst = max(worst, abs(click - oracles.first_click_closed_form(p.a, p.delta, p.dt)))
    fit = series.scaling_fits(["click_prob"], DELTA_GRID,
                              [ProtocolParams.from_b(10.0, 0.01, 1, dt=1.0)])[0]
    _criterion(3, "one-step click probability: closed form and residual order",
               worst <= 1e-12 and fit.exponent >= 3.5,
               f"worst gap {worst:.3e}, exponent {fit.exponent:.3f}")


def test_criterion_4_one_step_state_fidelity():
    fit = series.scaling_fits(["one_step_state"], DELTA_GRID,
                              [ProtocolParams.from_b(10.0, 0.01, 1, dt=1.0)])[0]
    _criterion(4, "one-step series state magnitudes track exact evolution",
               fit.exponent >= 2.5, f"exponent {fit.exponent:.3f}")


def test_criterion_5_and_6_branch_tree_soundness_and_optimality_floor():
    rng = np.random.default_rng(2002)
    worst_mass = worst_total = worst_swap = 0.0
    floor_ok = True
    for _ in range(200):
        p, energies = random_params(rng)
        report = protocol.run(p)
        mass0 = math.fsum(l.p_given_h0 for l in report.leaves)
        mass1 = math.fsum(l.p_given_h1 for l in report.leaves)
        worst_mass = max(worst_mass, abs(mass0 - 1), abs(mass1 - 1))
        resum = math.fsum(l.marginal * l.leaf_cost for l in report.leaves)
        worst_total = max(worst_total, abs(report.total_cost - resum))
        floor_ok &= report.verdict_vs_exact >= 0.0

        # Relabelling: the oracle walk from the swapped candidate pair.
        even = p._replace(prior=0.5)
        swapped = oracles.candidate_pair(even.b, even.delta)[::-1]
        swap_gap = abs(protocol.run(even).total_cost
                       - oracles.naive_run(even.b, even.delta, even.k, even.dt, *energies,
                                           even.prior, start=swapped)["total"])
        worst_swap = max(worst_swap, swap_gap)
    _criterion(5, "branch-tree soundness over 200 random parameter sets",
               worst_mass <= 1e-10 and worst_total <= 1e-12 and worst_swap <= 1e-12,
               f"mass {worst_mass:.2e}, total {worst_total:.2e}, swap {worst_swap:.2e}")
    _criterion(6, "exact-ledger total never beats the Helstrom floor",
               floor_ok)


def test_criterion_7_adjudication_summary(tmp_path):
    cfg = cli.parse_config(FIXTURE)
    rows = cli.run_sweep(cfg)
    text = cli.render_report(rows)[1]
    sets = text.count("set ")
    ok = sets == 6 and "(not run)" not in text
    field_lines = [ln.strip() for ln in text.splitlines()]
    for field in ("total_cost[exact]", "total_cost[paper]", "baseline_exact",
                  "baseline_paper", "paper_new_cost", "final_overlap",
                  "overlap delta-exponent"):
        ok &= sum(1 for ln in field_lines
                  if ln.startswith(field) and "=" in ln) == 6
    for verdict_line in ("exact-ledger sanity", "paper-ledger claim"):
        ok &= sum(1 for ln in field_lines if ln.startswith(verdict_line)) == 6
    # Both verbatim-suspect expressions must be flagged up front.
    ok &= "overlap_k_paper" in text and "survival_k_paper" in text
    # The exponent is a mandatory numeric field on every set.
    exponents = [r.overlap_exponent for r in rows if not r.error]
    ok &= all(e is not None and math.isfinite(e) for e in exponents)
    _criterion(7, "adjudication summary carries totals, baselines, overlap "
                  "exponent, and suspect-expression flags for the fixture", ok,
               f"sets={sets}, exponents ~ {sorted(set(round(e, 2) for e in exponents))}")


def test_criterion_8_mixed_vs_pure_cross_formula():
    rng = np.random.default_rng(3003)
    worst = 0.0
    for _ in range(1000):
        psi0 = oracles.random_pure_state(rng)
        psi1 = oracles.random_pure_state(rng)
        prior = rng.uniform()
        gap = abs(oracles.helstrom_trace_norm(oracles.density(psi0), oracles.density(psi1), prior)
                  - helstrom.helstrom_cost(prior, abs(np.vdot(psi0, psi1)) ** 2,
                                           oracles.gram_complement(psi0, psi1)))
        worst = max(worst, gap)
    _criterion(8, "trace-norm and closed-form Helstrom costs agree on 1000 pure pairs",
               worst <= 1e-12, f"worst gap {worst:.3e}")


def test_criterion_9_sweep_determinism(tmp_path, capsys):
    cfg_path = tmp_path / "fixture.cfg"
    cfg_path.write_text(FIXTURE)
    outs = []
    for name in ("first", "second"):
        prefix = tmp_path / name
        assert cli.main(["sweep", "--config", str(cfg_path),
                         "--out", str(prefix), "--quiet"]) == 0
        outs.append(((prefix.with_suffix(".csv")).read_bytes(),
                     (prefix.with_suffix(".txt")).read_bytes()))
    capsys.readouterr()
    _criterion(9, "sweep output is byte-identical across reruns",
               outs[0] == outs[1])

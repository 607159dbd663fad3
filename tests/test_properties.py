"""Property tests of the outcome tree over random valid parameters.

Each property must hold on the whole valid domain, not only the fixture:
pricing one tree under the other ledger is a run under that ledger, the
final-step price of an optimize trial is the total of the run, tree gives
a point of floats, as floats, the values of its one-entry arrays, the
survival trajectory pairs up the stored survival, the charged leaves sum
to the closed-form total, the tree agrees with the independent
dense-exponential walk of the oracles, the exact ledger never
beats the Helstrom floor, the paper total is half the click mass, the leaf
masses sum to one, relabelling the hypotheses at an even prior matches the
oracle walk from the swapped pair, swapping the prior for its complement
leaves the total unchanged, many close probes at a fixed total time
meet the Misra-Sudarshan limit, a scaling study's rows are those of one
walk per grid point with one fit per column, a sweep report, rendered and
written in one pass, and a scaling CSV and a run report have the bytes of
the cell-by-cell references, and optimize finds what a search that builds
and validates every trial finds. The oracle comparisons run up to k = 200,
the others up to k = 10^4. Rounding bounds count one rounding per leaf:
(k + 1) eps, or 2 (k + 1) eps where two sums meet.
"""

import csv
import dataclasses
import io
import itertools
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from zenodisc import cli, protocol, series
from zenodisc.protocol import Mode, ProtocolParams
from zenodisc.qcore import ValidationError

import oracles

EPS = 2.0 ** -52
# Slack of the Helstrom floor: relative, for the rounding of the total. The
# Helstrom form cancels at neither end, so no absolute slack is needed even
# where 4 xi (1 - xi) T is tiny.
FLOOR_REL = 1e-12
# Absolute bound of the agreement with oracles.naive_run, as in
# tests/test_protocol.py::test_run_matches_independent_walk.
ORACLE_ABS = 1e-12
K_MAX = 10**4
ORACLE_K_MAX = 200


@st.composite
def valid_params(draw, mode=st.sampled_from(Mode), prior=st.floats(0.0, 1.0), k_max=K_MAX):
    delta = draw(st.floats(1e-4, 0.2))
    bd = draw(st.floats(0.0, 0.9))
    return ProtocolParams.from_b(
        bd / delta, delta, draw(st.integers(1, k_max)), dt=draw(st.floats(0.05, 3.0)),
        prior=draw(prior), mode=draw(mode))


def _other(mode: Mode) -> Mode:
    return Mode.PAPER if mode is Mode.EXACT else Mode.EXACT


# The ledger's numbers and the per-step values are properties of the report,
# not fields, so they are compared by name next to the stored fields.
LEDGER_VIEWS = ("total_cost", "verdict_vs_exact", "verdict_vs_paper", "paper_new_cost", "leaves")
STEP_VIEWS = ("clicks", "survival", "overlap_trajectory", "survived_pair")


@settings(max_examples=60, deadline=None)
@given(valid_params())
def test_pricing_a_walk_equals_running_that_ledger(p):
    priced = protocol.price(protocol.run(p), _other(p.mode))
    ran = protocol.run(dataclasses.replace(p, mode=_other(p.mode)))
    for name in (*(f.name for f in dataclasses.fields(ran)), *LEDGER_VIEWS, *STEP_VIEWS):
        if name == "survived_pair":
            for got, want in zip(priced.survived_pair, ran.survived_pair):
                assert np.array_equal(got.amplitudes, want.amplitudes)
        else:
            assert getattr(priced, name) == getattr(ran, name), name


# optimize prices its trials at their final step from a, b delta and x = delta dt,
# and the optimum's row is priced as a sweep row, so a trial's total must be the
# total of its run.
@settings(max_examples=60, deadline=None)
@given(valid_params(prior=st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0))))
def test_final_step_price_equals_the_run_total(p):
    report = protocol.run(p)
    assert protocol.ledger(p.mode, p.prior, *protocol.final_step(p))[2] == report.total_cost
    assert protocol.final_total(p.mode, p.prior, *protocol.normalised(p), p.k) == report.total_cost
    s = report.survival
    assert report.survival_trajectory == tuple(zip(s, s))


# A point of floats goes through tree in Python floats, with numpy's expm1 and exp of the
# float, so a run or an optimize trial gets the numbers a sweep gets from its columns.
@settings(max_examples=60, deadline=None)
@given(valid_params())
@example(ProtocolParams(a=1.0, b=0.0, delta=0.1875, dt=3.0, k=61))  # M_k >= b^2 delta^2
@example(ProtocolParams.from_b(90.0, 0.01, 1, dt=0.05))  # k = 1, M_k < b^2 delta^2
@example(ProtocolParams.from_b(0.2, 0.5, 3, dt=math.pi))  # s^2 rounds to 1: log c^2 from cos
@example(ProtocolParams.from_b(10.0, 0.01, 10**18, dt=1e-12))
@example(ProtocolParams.from_a(1.0, -0.0, 5, dt=1.0))  # x = -0
def test_tree_of_a_float_point_is_its_entry_as_arrays(p):
    a, bd, x = protocol.normalised(p)
    got = protocol.tree(a, bd, x, float(p.k))
    want = protocol.tree(*(np.array([v]) for v in (a, bd, x, float(p.k))))
    assert [type(v) for v in got] == [float] * 4
    for value, entry in zip(got, want):
        assert _same(value, entry.item())
    assert [type(v) for v in protocol.final_step(p)] == [float] * 4
    assert type(protocol.final_total(p.mode, p.prior, a, bd, x, p.k)) is float


# The leaves that `zenodisc run` prints sum to the total it prints.
@settings(max_examples=60, deadline=None)
@given(valid_params())
def test_leaves_sum_to_the_total(p):
    report = protocol.run(p)
    resum = math.fsum(leaf.marginal * leaf.leaf_cost for leaf in report.leaves)
    assert abs(resum - report.total_cost) <= (p.k + 1) * EPS


# The oracle walk has level energies as inputs and the package does not, so
# drawing them shows that they change no reported number.
@settings(max_examples=60, deadline=None)
@given(valid_params(k_max=ORACLE_K_MAX), st.floats(-2.0, 3.0), st.floats(-2.0, 3.0))
def test_walk_agrees_with_the_oracle_walk(p, e0, e1):
    report = protocol.run(p)
    ref = oracles.naive_run(p.b, p.delta, p.k, p.dt, e0, e1, p.prior,
                            paper_ledger=p.mode is Mode.PAPER)
    assert abs(report.total_cost - ref["total"]) <= ORACLE_ABS
    assert abs(report.final_overlap - ref["final_overlap"]) <= ORACLE_ABS
    assert len(report.leaves) == len(ref["leaf_p0"])
    for leaf, q0, q1 in zip(report.leaves, ref["leaf_p0"], ref["leaf_p1"]):
        assert abs(leaf.p_given_h0 - q0) <= ORACLE_ABS
        assert abs(leaf.p_given_h1 - q1) <= ORACLE_ABS


@settings(max_examples=60, deadline=None)
@given(valid_params(mode=st.just(Mode.EXACT)))
# A nearly certain prior: 4 xi (1 - xi) T is tiny.
@example(ProtocolParams.from_b(10 / 3, 0.1875, 1, dt=3.0, prior=1.0 - 1.1e-16))
def test_exact_ledger_never_beats_the_helstrom_floor(p):
    report = protocol.run(p)
    assert report.total_cost >= report.baseline_exact * (1.0 - FLOOR_REL)


@settings(max_examples=60, deadline=None)
@given(valid_params(mode=st.just(Mode.PAPER)))
def test_paper_total_is_half_the_click_mass(p):
    report = protocol.run(p)
    survived = report.leaves[-1].marginal
    assert abs(report.total_cost - (1.0 - survived) / 2.0) <= (p.k + 1) * EPS


@settings(max_examples=60, deadline=None)
@given(valid_params())
def test_leaf_masses_sum_to_one(p):
    leaves = protocol.run(p).leaves
    for mass in (math.fsum(leaf.marginal for leaf in leaves),
                 math.fsum(leaf.p_given_h0 for leaf in leaves),
                 math.fsum(leaf.p_given_h1 for leaf in leaves)):
        assert abs(mass - 1.0) <= 2 * (p.k + 1) * EPS


# Relabelling the hypotheses at an even prior swaps the start pair; the
# package has no start argument, so the oracle walk runs from the swapped pair.
@settings(max_examples=60, deadline=None)
@given(valid_params(prior=st.just(0.5), k_max=ORACLE_K_MAX), st.floats(-2.0, 3.0),
       st.floats(-2.0, 3.0))
# b = 0: the survived pair is nearly parallel, O_k -> 1.
@example(ProtocolParams(a=1.0, b=0.0, delta=0.1875, dt=3.0, k=61), 1.0, 1.0)
def test_relabelling_the_hypotheses_keeps_the_total_at_an_even_prior(p, e0, e1):
    swapped = oracles.candidate_pair(p.b, p.delta)[::-1]
    ref = oracles.naive_run(p.b, p.delta, p.k, p.dt, e0, e1, p.prior,
                            paper_ledger=p.mode is Mode.PAPER, start=swapped)
    assert abs(protocol.run(p).total_cost - ref["total"]) <= ORACLE_ABS


# Relabelling the hypotheses turns prior xi into 1 - xi, and the mirror
# symmetry maps the relabelled pair back onto the original one.
@settings(max_examples=60, deadline=None)
@given(valid_params())
def test_swapping_the_prior_keeps_the_total(p):
    forward = protocol.run(p).total_cost
    swapped = protocol.run(dataclasses.replace(p, prior=1.0 - p.prior)).total_cost
    assert abs(forward - swapped) <= (p.k + 1) * EPS


# Many close probes at fixed total time T = k dt (Misra and Sudarshan):
# k (1 - P(survive)) -> a^2 delta^2 T^2 / 2 up to O((delta T)^2), with the
# bound of tests/test_protocol.py::test_run_zeno_regime_keeps_leaf_mass_and_meets_the_limit.
# delta T >= 2e-3 and b delta <= 0.5 keep the limit's relative bound above
# the rounding of P(survive), which k scales up.
@settings(max_examples=60, deadline=None)
@given(st.floats(1e-3, 1e-2), st.floats(0.0, 0.5), st.floats(2.0, 3.0), st.integers(1, K_MAX))
def test_many_close_probes_meet_the_zeno_limit(delta, bd, total_time, k):
    p = ProtocolParams.from_b(bd / delta, delta, k, dt=total_time / k)
    report = protocol.run(p)
    limit = p.a**2 * delta**2 * total_time**2 / 2.0
    got = k * (1.0 - report.leaves[-1].marginal)
    assert abs(got - limit) <= (delta * total_time) ** 2 * limit


def _grid(draw, elements) -> tuple:
    return tuple(sorted(draw(st.lists(elements, min_size=1, max_size=2, unique=True))))


@st.composite
def sweep_configs(draw):
    """Small grids of either amplitude, auto or explicit dt and priors with
    the ends 0 and 1. Some points fail: b delta > 1, a = 0 or a = 1 under
    auto dt, delta = 0 or -0 with a < 1, a dt whose square overflows, a k
    of 400 digits; a k past 2^63 is evaluated."""
    amplitude = draw(st.sampled_from(("a", "b")))
    edges = st.sampled_from((0.0, 1.0))
    ab = _grid(draw, edges | st.floats(0.0, 1.0) if amplitude == "a" else st.floats(0.0, 20.0))
    dt = (None,) if draw(st.booleans()) else _grid(draw, st.floats(0.01, 3.0) | st.floats(1e155, 1e300))
    return cli.SweepConfig(
        amplitude=amplitude, ab=ab, delta=_grid(draw, st.sampled_from((0.0, -0.0)) | st.floats(1e-4, 0.1)),
        dt=dt, k=_grid(draw, st.integers(1, K_MAX) | st.integers(2**63, 2**80) | st.just(5 * 10**399)),
        xi=_grid(draw, edges | st.floats(0.0, 1.0)),
        modes=draw(st.sampled_from(((Mode.EXACT,), (Mode.PAPER,), (Mode.EXACT, Mode.PAPER)))))


# a = 1 at delta = -0 is a valid point, b = 0: its row prints b as "0" and delta as "-0".
# a = 0.99 there fails with "delta = 0 requires a = 1".
_ZERO_DELTA = cli.SweepConfig(amplitude="a", ab=(0.99, 1.0), delta=(-0.0, 0.01), dt=(0.5,), k=(1, 7),
                              xi=(0.5,), modes=(Mode.EXACT, Mode.PAPER))
# Under auto dt, b = 0 fails with "b must be positive" and b = 200 with b delta > 1; their
# error rows hold NaN for a and dt.
_AUTO_FAILING = cli.SweepConfig(amplitude="b", ab=(0.0, 1.0, 200.0), delta=(0.001, 0.01), dt=(None,),
                                k=(1, 7), xi=(0.5,), modes=(Mode.EXACT, Mode.PAPER))


def _walked_exponent(params: ProtocolParams, auto_dt: bool) -> float | None:
    """The overlap exponent from one walk per point of the default delta grid."""
    if params.b * max(series.DEFAULT_DELTAS) >= 1.0:
        return None
    try:
        overlaps = [protocol.run(protocol.rescale_delta(params, d, auto_dt=auto_dt)).final_overlap
                    for d in series.DEFAULT_DELTAS]
        return series.fit_power_law(series.DEFAULT_DELTAS, overlaps).exponent
    except ValidationError:
        return None


def _report_row(report: protocol.ProtocolReport, exponent: float | None) -> cli.ReportRow:
    p = report.params
    return cli.ReportRow(
        a=p.a, b=p.b, delta=p.delta, dt=p.dt, k=p.k, xi=p.prior, mode=p.mode.value,
        total_cost=report.total_cost, baseline_exact=report.baseline_exact,
        baseline_paper=report.baseline_paper, paper_new_cost=report.paper_new_cost,
        final_overlap=report.final_overlap, overlap_exponent=exponent,
        verdict_vs_baseline_exact=report.verdict_vs_exact,
        verdict_vs_baseline_paper=report.verdict_vs_paper)


def _walked_rows(config: cli.SweepConfig) -> list[cli.ReportRow]:
    """The sweep's rows point by point: every valid point walked and priced
    under each ledger, every failing point one error row per ledger."""
    build = ProtocolParams.from_a if config.amplitude == "a" else ProtocolParams.from_b
    rows = []
    for ab, delta, dt, k, xi in itertools.product(config.ab, config.delta, config.dt, config.k,
                                                  config.xi):
        try:
            params = build(ab, delta, k, dt=dt, prior=xi)
        except ValidationError as exc:
            point = {"a": math.nan, "b": math.nan, config.amplitude: ab,
                     "dt": math.nan if dt is None else dt}
            rows += [cli.ReportRow(**point, delta=delta, k=k, xi=xi, mode=mode.value, error=str(exc))
                     for mode in config.modes]
            continue
        report = protocol.run(params)
        exponent = _walked_exponent(params, config.auto_dt)
        rows += [_report_row(protocol.price(report, mode), exponent) for mode in config.modes]
    return sorted(rows, key=cli._row_sort_key)


def _same(value, expected) -> bool:
    """Equal, with the same sign where both are floats (0.0 == -0.0 prints differently),
    or both NaN."""
    if isinstance(value, float) and isinstance(expected, float):
        return (value == expected and math.copysign(1.0, value) == math.copysign(1.0, expected)
                or math.isnan(value) and math.isnan(expected))
    return value == expected


@settings(max_examples=60, deadline=None)
@given(sweep_configs())
@example(_ZERO_DELTA)
@example(_AUTO_FAILING)
def test_sweep_rows_equal_the_rows_of_each_walk(config):
    got, want = cli.run_sweep(config), _walked_rows(config)
    # Valid rows sort on their fields as they are, error rows with NaN as inf.
    assert list(map(id, got)) == list(map(id, sorted(got, key=cli._row_sort_key)))
    assert len(got) == len(want)
    for row, ref in zip(got, want):
        for field in dataclasses.fields(row):
            # NaN stands for the amplitude an error row has not derived, or
            # for the exponent of a fit whose residuals are all floored.
            assert _same(getattr(row, field.name), getattr(ref, field.name)), field.name


# A point past the float range: its error message, "dt^2, delta^2 and k (delta dt)^2 must
# be finite, got ...", holds commas, so the CSV must quote it.
_OVERFLOW = cli.SweepConfig(amplitude="b", ab=(1.0,), delta=(0.01,), dt=(1e200,), k=(1,),
                            xi=(0.5,), modes=(Mode.EXACT, Mode.PAPER))


@settings(max_examples=60, deadline=None)
@given(sweep_configs(), st.integers(6, 17))
@example(_OVERFLOW, 17)
@example(_ZERO_DELTA, 17)
def test_report_has_the_bytes_of_the_cell_by_cell_reference(config, digits):
    rows = cli.run_sweep(config)
    want_csv = oracles.render_csv(rows, digits)
    want_txt = oracles.render_summary(rows, series.SUSPECT_FLAGS, digits)
    got_csv = cli.render_csv(rows, digits)
    assert got_csv == want_csv
    assert cli.render_summary(rows, digits) == want_txt
    with tempfile.TemporaryDirectory() as tmp:
        csv_path, txt_path = cli.emit_report(rows, os.path.join(tmp, "report"), digits)
        assert csv_path.read_bytes() == want_csv.encode()
        assert txt_path.read_bytes() == want_txt.encode()
    read = list(csv.DictReader(io.StringIO(got_csv)))
    assert [r["error"] for r in read] == [row.error for row in rows]


# The scaling residuals as they were read off one report per grid point.
_REPORT_RESIDUALS = {
    "baseline": lambda r: abs(series.baseline_paper_convention(r.params)
                              - 0.25 * (r.params.b * r.params.delta) ** 2),
    "click_prob": lambda r: abs(r.clicks[0] - 0.5 * r.params.a**2 * r.params.delta**2 * r.params.dt**2),
    "final_overlap": lambda r: r.final_overlap,
    "k_step_state": lambda r: float(np.max(np.abs(np.abs(r.survived_pair[0].amplitudes)
                                                  - np.abs(series.k_step_state(r.params, 0))))),
    "one_step_state": lambda r: float(np.max(np.abs(
        np.array([r.params.a * abs(math.cos(r.params.delta * r.params.dt)),
                  r.params.a * abs(math.sin(r.params.delta * r.params.dt)), 0.0, 0.0,
                  r.params.b * r.params.delta]) - np.abs(series.one_step_state(r.params, 0))))),
    "overlap_vs_series": lambda r: abs(r.final_overlap - abs(series.overlap_k_paper(r.params))),
    "survival_k": lambda r: abs(r.survival[-1] - series.survival_k_paper(r.params)),
    "survival_step": lambda r: abs((1.0 - r.clicks[0]) - series.one_step_survival(r.params)),
}


def _walked_scaling_rows(config: cli.SweepConfig, quantity: str) -> list[dict]:
    """The scaling study point by point: one protocol.run per grid point, each
    residual read off its report, and one np.polyfit per (template, quantity)."""
    build = ProtocolParams.from_a if config.amplitude == "a" else ProtocolParams.from_b
    quantities = sorted(_REPORT_RESIDUALS) if quantity == "all" else [quantity]
    deltas = config.delta[::-1]
    rows = []
    for ab, dt, k, xi in itertools.product(config.ab, config.dt, config.k, config.xi):
        template = build(ab, deltas[0], k, dt=dt, prior=xi)
        reports = [protocol.run(protocol.rescale_delta(template, d, auto_dt=config.auto_dt))
                   for d in deltas]
        for q in quantities:
            residuals = [_REPORT_RESIDUALS[q](r) for r in reports]
            n_floored = sum(1 for r in residuals if r < series.NOISE_FLOOR)
            exponent = intercept = math.nan
            if n_floored < len(deltas):
                floored = [max(r, series.NOISE_FLOOR) for r in residuals]
                exponent, intercept = np.polyfit(np.log(deltas), np.log(floored), 1).tolist()
            rows.append({
                "quantity": q, "b": template.b, "k": k, "xi": xi,
                "dt_rule": "auto" if config.auto_dt else template.dt,
                "exponent": exponent, "intercept": intercept, "n_floored": n_floored,
                "indeterminate": n_floored == len(deltas), "flag": series.quantity_flag(q),
                "deltas": ";".join(f"{d:.{config.digits}g}" for d in deltas),
                "residuals": ";".join(f"{r:.{config.digits}g}" for r in residuals)})
    return rows


@st.composite
def scaling_configs(draw):
    """a or b grids, auto or explicit dt, 3 to 5 deltas over one to two decades
    and k up to 10^4. b delta stays below 1 at the largest delta, and every
    point is valid."""
    top = draw(st.floats(1e-3, 0.05))
    inner = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3, unique=True))
    span = 10.0 ** draw(st.floats(1.0, 2.0))
    deltas = tuple(sorted({top, top / span, *(top / span**u for u in inner)}))
    assume(len(deltas) >= 3)
    amplitude = draw(st.sampled_from(("a", "b")))
    if amplitude == "a":
        ab = _grid(draw, st.floats(0.3, 0.9999))
    else:
        ab = tuple(sorted({bd / top for bd in draw(st.lists(st.floats(0.01, 0.95), min_size=1,
                                                              max_size=2, unique=True))}))
    dt = (None,) if draw(st.booleans()) else _grid(draw, st.floats(0.01, 3.0))
    return cli.SweepConfig(amplitude=amplitude, ab=ab, delta=deltas, dt=dt,
                           k=_grid(draw, st.integers(1, K_MAX)), xi=_grid(draw, st.floats(0.0, 1.0)),
                           modes=(Mode.EXACT,))


@settings(max_examples=40, deadline=None)
@given(scaling_configs(), st.sampled_from(sorted(series.SCALING_QUANTITIES) + ["all"]),
       st.integers(6, 17))
def test_scaling_rows_equal_the_rows_of_each_walk(config, quantity, digits):
    got, want = cli.scaling_study(config, quantity), _walked_scaling_rows(config, quantity)
    assert len(got) == len(want)
    for row, ref in zip(got, want):
        assert row.keys() == ref.keys()
        for name, value in row.items():
            # NaN stands for the exponent and intercept of an indeterminate fit.
            assert value == ref[name] or (isinstance(value, float) and math.isnan(value)
                                          and math.isnan(ref[name])), name
    assert cli.render_scaling_csv(got, digits) == oracles.render_scaling_csv(got, digits)


# `zenodisc run` prints what the per-leaf reference prints, under either ledger.
@settings(max_examples=60, deadline=None)
@given(valid_params(k_max=ORACLE_K_MAX), st.integers(6, 17))
def test_run_report_has_the_bytes_of_the_per_leaf_reference(p, digits):
    report = protocol.run(p)
    for mode in Mode:
        priced = protocol.price(report, mode)
        assert cli._render_run_report(priced, digits) == oracles.render_run_report(priced, digits)


def _optimize_per_trial(config: cli.SweepConfig, mode: Mode):
    """optimize's search with a validated ProtocolParams for every trial, priced at its
    final step, and the optimum's row from its walk."""
    build = ProtocolParams.from_a if config.amplitude == "a" else ProtocolParams.from_b
    (ab,), (delta,), (xi,) = config.ab, config.delta, config.xi
    totals = {}

    def objective(k, dt):
        params = build(ab, delta, k, dt=dt, prior=xi, mode=mode)
        if (k, params.dt) not in totals:
            totals[k, params.dt] = protocol.ledger(mode, xi, *protocol.final_step(params))[2], params
        return totals[k, params.dt][0]

    for k in config.k:
        for dt in config.dt:
            objective(k, dt)
        if len(config.dt) > 1:
            cli._golden_section(lambda dt: objective(k, dt), config.dt[0], config.dt[-1])
    _, k, dt = min((total, k, dt) for (k, dt), (total, _) in totals.items())
    params = totals[k, dt][1]
    return params, _report_row(protocol.run(params), _walked_exponent(params, config.auto_dt))


@st.composite
def optimize_configs(draw):
    """One point of either amplitude, auto dt or a bracket of up to four dts, and up to
    two ks. Some fail: b = 0 or a = 1 under auto dt."""
    amplitude = draw(st.sampled_from(("a", "b")))
    delta = draw(st.floats(1e-4, 0.1))
    ab = draw(st.floats(0.3, 1.0)) if amplitude == "a" else draw(st.floats(0.0, 0.95)) / delta
    dt = (None,) if draw(st.booleans()) else tuple(sorted(draw(
        st.lists(st.floats(0.01, 3.0), min_size=1, max_size=4, unique=True))))
    return cli.SweepConfig(amplitude=amplitude, ab=(ab,), delta=(delta,), dt=dt,
                           k=_grid(draw, st.integers(1, K_MAX)), xi=(draw(st.floats(0.0, 1.0)),),
                           modes=(draw(st.sampled_from(Mode)),))


@settings(max_examples=60, deadline=None)
@given(optimize_configs())
def test_optimize_finds_what_a_search_over_built_trials_finds(config):
    mode = config.modes[0]
    try:
        want = _optimize_per_trial(config, mode)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as err:
            cli.optimize(config, mode)
        assert str(err.value) == str(exc)
        return
    assert cli.optimize(config, mode) == want

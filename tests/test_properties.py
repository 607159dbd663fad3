"""Property tests of the outcome tree over random valid parameters.

Each property must hold on the whole valid domain, not only the fixture: the
final-step price of a point is the total of its run, tree gives a point of
floats, as floats, the values of its one-entry arrays, the survival
trajectory pairs up the stored survival, the charged leaves sum to the
closed-form total, the tree agrees with the independent dense-exponential
walk of the oracles, the exact ledger never beats the Helstrom floor, the
exact total never falls as the click mass rises (at 50 digits), is that
function of the engine's own click mass and sits on the floor where the
click mass is 0, the exact-ledger verdict matches the 50-digit reference
to its own digits and is never negative, the paper total
is half the click mass, the leaf masses sum to one, relabelling the
hypotheses at an even prior matches the oracle walk from the swapped pair,
swapping the prior for its complement leaves the total unchanged, many close
probes at a fixed total time meet the Misra-Sudarshan limit, a scaling
study's rows are those of one walk per grid point with the exact
least-squares fit of each column (to oracles.FIT_ULPS ulp) and its error
that of the first failing walk, each series form of columns is
the form of each point (k up to 10^18), a sweep report, rendered and written
in one pass, and a scaling CSV and a run report have the bytes of the
cell-by-cell references, optimize finds what building and running each of
its candidates finds, and no dt of a bracket, in a dense scan, prices below
the optimum. The oracle comparisons run up to k = 200, the others up to k =
10^4 unless stated. Rounding bounds count one rounding per leaf: (k + 1)
eps, or 2 (k + 1) eps where two sums meet.
"""

import csv
import io
import itertools
import math
import os
import sys
import tempfile
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from zenodisc import ValidationError, cli, protocol, series
from zenodisc.protocol import Mode, ProtocolParams

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
def valid_params(draw, mode=st.sampled_from(Mode), prior=st.floats(0.0, 1.0), k_max=K_MAX,
                 dt=st.floats(0.05, 3.0), bd=st.floats(0.0, 0.9)):
    delta = draw(st.floats(1e-4, 0.2))
    bd = draw(bd)
    return ProtocolParams.from_b(
        bd / delta, delta, draw(st.integers(1, k_max)), dt=draw(dt),
        prior=draw(prior), mode=draw(mode))


# dt over decades, so that the click mass M reaches from far below the rounding of 1 to
# its saturation a^2 / 2.
DECADES_DT = st.floats(-6.0, 0.5).map(lambda e: 10.0 ** e)


# A sweep and optimize price a point at its final step, so that price must be the
# total of its run.
@settings(max_examples=60, deadline=None)
@given(valid_params(prior=st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0))))
def test_final_step_price_equals_the_run_total(p):
    report = protocol.run(p)
    assert protocol.ledger(p.mode, p.prior, *protocol.final_step(p))[2] == report.total_cost
    s = report.survival
    assert report.survival_trajectory == tuple(zip(s, s))


# A point of floats goes through tree in Python floats and math, and an array entry through
# the same math function per entry (expm1 and exp too), so a run gets the numbers a sweep
# gets from its columns.
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


# The exact ledger's verdict, its margin over the Helstrom floor, against the 50-digit
# reference and relative to the verdict itself: where the click mass M is tiny the verdict is
# far below total and baseline_exact, whose difference kept few of its digits (1.25e-5
# relative at the first example). Bound, fixed before measuring: 1e-13, about 450 eps. M g(M)
# takes a few dozen roundings, and the rounded delta dt enters M and g with a condition of at
# most ~10 on this domain (delta dt < 1). The reference takes the engine's normalised a and
# b delta, so the nearly parallel pair (b delta up to 1 - 1e-15, where the verdict is O(a^6)
# of the total) costs no digits of the inputs, and it raises its precision by the digits its
# difference of two totals cancels (:func:`oracles.decimal_exact_verdict`), so it keeps 50 of
# the verdict. A subnormal verdict holds fewer digits, so the smallest normal float is
# allowed absolutely.
VERDICT_REL = Decimal("1e-13")


@settings(max_examples=100, deadline=None)
@given(valid_params(mode=st.just(Mode.EXACT), k_max=10**5, dt=DECADES_DT, bd=st.floats(0.0, 1.0 - 1e-15)))
@example(ProtocolParams.from_b(88.85074653873919, 0.00934590131528339, 17,
                               dt=0.00016620039754226847, prior=0.3045145664658649))
# b delta = 1 - 1e-6: a reference from the float b and delta was off by 2.0e-10 here.
@example(ProtocolParams.from_b(39.0624609375, 0.0256, 643, dt=0.00604, prior=0.57))
# b delta = 1 - 1.2e-15: the 50-digit difference of the two totals was off by 7.6e-9 here.
@example(ProtocolParams.from_b(5.061303075403882, 0.19757757737521, 91226, dt=1.7514302377118476,
                               prior=0.6913344758903868))
def test_exact_verdict_matches_the_decimal_reference_to_its_own_digits(p):
    want = oracles.decimal_exact_verdict(*protocol.normalised(p)[:2], p.delta, p.dt, p.k, p.prior)
    got = protocol.run(p).verdict_vs_exact
    assert abs(Decimal(got) - want) <= VERDICT_REL * want + Decimal(sys.float_info.min)


# The exact total is f(M), the price of the click mass alone (see
# test_the_exact_total_never_falls_as_the_click_mass_rises), at the engine's own click mass M_k
# and normalised b delta, both taken as exact. Bound, fixed before measuring: 1e-14 relative,
# about 45 eps. The total adds two nonnegative terms of a few roundings each, and b delta <= 0.9
# keeps a^2 >= 0.19, so the gap 1 - O^2 that the engine passes Helstrom in closed form enters
# with a condition near 1. A total of 0 (a prior of 0 or 1) must be 0, up to the smallest
# normal float.
TOTAL_REL = Decimal("1e-14")


@settings(max_examples=100, deadline=None)
@given(valid_params(mode=st.just(Mode.EXACT), k_max=10**5, dt=DECADES_DT,
                    prior=st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0))))
def test_exact_total_is_the_price_of_its_click_mass(p):
    report = protocol.run(p)
    _, bd, _ = protocol.normalised(p)
    with localcontext() as ctx:
        ctx.prec = oracles.DECIMAL_DIGITS
        want = oracles.decimal_exact_total(p.prior, Decimal(bd) ** 2, report.click_mass)
    assert abs(Decimal(report.total_cost) - want) <= TOTAL_REL * want + Decimal(sys.float_info.min)


# The exact ledger's margin M g(M) is never negative, with no slack, and the costs of
# one-entry arrays, as a sweep prices them, are those of floats: priors 0 and 1, a -> 0
# (the pair nearly parallel, where g is O(a^4)), k up to 10^18 and M from 0 to a^2 / 2.
@settings(max_examples=100, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(1e-6, 0.3), st.floats(-8.0, 1.5).map(lambda e: 10.0 ** e),
       st.integers(1, 10**18), st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0)))
@example(0.0, 0.01, 1.0, 3, 0.5)  # xi = 1/2 and a = 0: every denominator of g is 0
# A nearly parallel pair: g written as m minus a term near m came out -2.3e-27 here.
@example(1.8203650293340727e-05, 0.15948191651457963, 2.298224669334561, 795, 0.9)
@example(0.6, 0.1, math.pi / 0.1, 5, 0.3)  # dt = pi / delta: M rounds to nearly 0
def test_exact_margin_is_never_negative(a, delta, dt, k, prior):
    p = ProtocolParams.from_a(a, delta, k, dt=dt, prior=prior)
    a, bd, x = protocol.normalised(p)
    point = (p.prior, a, bd, *protocol.tree(a, bd, x, float(k)))
    (got,) = protocol.costs((Mode.EXACT,), *point)
    (entries,) = protocol.costs((Mode.EXACT,), *(np.array([v]) for v in point))
    assert all(_same(value, entry.item()) for value, entry in zip(got, entries))
    assert got[3] >= 0.0
    assert protocol.run(p).verdict_vs_exact == got[3]


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
    swapped = protocol.run(p._replace(prior=1.0 - p.prior)).total_cost
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


def _rescaled(template: ProtocolParams, delta: float, auto_dt: bool) -> ProtocolParams:
    """``template`` moved to ``delta`` with b, k and the prior held, dt held or re-solved."""
    return ProtocolParams.from_b(template.b, delta, template.k, dt=None if auto_dt else template.dt,
                                 prior=template.prior)


def _walked_exponent(params: ProtocolParams, auto_dt: bool) -> float | None:
    """The overlap exponent from one walk per point of the default delta grid."""
    if params.b * max(series.DEFAULT_DELTAS) >= 1.0:
        return None
    try:
        overlaps = [protocol.run(_rescaled(params, d, auto_dt)).final_overlap
                    for d in series.DEFAULT_DELTAS]
        return series.fit_power_laws(series.DEFAULT_DELTAS, [overlaps])[0].exponent
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
        exponent = _walked_exponent(params, config.auto_dt)
        rows += [_report_row(protocol.run(params._replace(mode=mode)), exponent)
                 for mode in config.modes]
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
        for name in row._fields:
            # NaN stands for the amplitude an error row has not derived, or
            # for the exponent of a fit whose residuals are all floored.
            assert _same(getattr(row, name), getattr(ref, name)), name


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
    got_csv, got_txt = cli.render_report(rows, digits)
    assert got_csv == want_csv
    assert got_txt == want_txt
    with tempfile.TemporaryDirectory() as tmp:
        csv_path, txt_path = cli.emit_report(rows, os.path.join(tmp, "report"), digits)
        assert csv_path.read_bytes() == want_csv.encode()
        assert txt_path.read_bytes() == want_txt.encode()
    read = list(csv.DictReader(io.StringIO(got_csv)))
    assert [r["error"] for r in read] == [row.error for row in rows]


# The scaling residuals as they were read off one report per grid point. Squares are
# products, as in the series forms.
_REPORT_RESIDUALS = {
    "baseline": lambda r: abs(series.baseline_paper_convention(r.params)
                              - 0.25 * ((r.params.b * r.params.delta) * (r.params.b * r.params.delta))),
    "click_prob": lambda r: abs(r.leaves[0].p_given_h0 - 0.5 * (r.params.a * r.params.a)
                                * (r.params.delta * r.params.delta) * (r.params.dt * r.params.dt)),
    "final_overlap": lambda r: r.final_overlap,
    "k_step_state": lambda r: float(np.max(np.abs(np.abs(r.survived)
                                                  - np.abs(series.k_step_state(r.params, 0))))),
    "one_step_state": lambda r: float(np.max(np.abs(
        np.array([r.params.a * abs(math.cos(r.params.delta * r.params.dt)),
                  r.params.a * abs(math.sin(r.params.delta * r.params.dt)), 0.0, 0.0,
                  r.params.b * r.params.delta]) - np.abs(series.one_step_state(r.params, 0))))),
    "overlap_vs_series": lambda r: abs(r.final_overlap - abs(series.overlap_k_paper(r.params))),
    "survival_k": lambda r: abs(r.survival_trajectory[-1][0] - series.survival_k_paper(r.params)),
    "survival_step": lambda r: abs((1.0 - r.leaves[0].p_given_h0) - series.one_step_survival(r.params)),
}


def _walked_scaling_rows(config: cli.SweepConfig, quantity: str) -> list[dict]:
    """The scaling study point by point: every template built, one protocol.run per grid
    point, each residual read off its report, and per (template, quantity) the exact
    least-squares line of the logs, which a fit matches to oracles.FIT_ULPS ulp. The first
    residual that is not finite, by template, quantity and delta, raises."""
    build = ProtocolParams.from_a if config.amplitude == "a" else ProtocolParams.from_b
    quantities = sorted(_REPORT_RESIDUALS) if quantity == "all" else [quantity]
    deltas = config.delta[::-1]
    templates = [build(ab, deltas[0], k, dt=dt, prior=xi)
                 for ab, dt, k, xi in itertools.product(config.ab, config.dt, config.k, config.xi)]
    walks = [[protocol.run(_rescaled(t, d, config.auto_dt)) for d in deltas] for t in templates]
    rows = []
    for template, reports in zip(templates, walks):
        for q in quantities:
            with np.errstate(all="ignore"):  # an overflowing series form is inf or NaN
                residuals = [_REPORT_RESIDUALS[q](r) for r in reports]
            for p, value in zip((report.params for report in reports), residuals):
                if not math.isfinite(value):
                    raise ValidationError(f"{q} overflows at b={p.b!r}, delta={p.delta!r}, dt={p.dt!r}, "
                                          f"k={protocol.shown(p.k)}")
            n_floored = sum(1 for r in residuals if r < series.NOISE_FLOOR)
            exponent = intercept = math.nan
            if n_floored < len(deltas):
                logs = [math.log(max(r, series.NOISE_FLOOR)) for r in residuals]
                exponent, intercept = oracles.least_squares_line(map(math.log, deltas), logs)
            rows.append({
                "quantity": q, "b": template.b, "k": template.k, "xi": template.prior,
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


def _assert_same_scaling_rows(got: list[dict], want: list[dict]) -> None:
    assert len(got) == len(want)
    for row, ref in zip(got, want):
        assert row.keys() == ref.keys()
        for name, value in row.items():
            # NaN stands for the exponent and intercept of an indeterminate fit.
            assert value == ref[name] or (isinstance(value, float) and math.isnan(value)
                                          and math.isnan(ref[name])), name


@settings(max_examples=40, deadline=None)
@given(scaling_configs(), st.sampled_from(sorted(series.SCALING_QUANTITIES) + ["all"]),
       st.integers(6, 17))
def test_scaling_rows_equal_the_rows_of_each_walk(config, quantity, digits):
    got = cli.scaling_study(config, quantity)
    _assert_same_scaling_rows(got, _walked_scaling_rows(config, quantity))
    assert cli.render_scaling_csv(got, digits) == oracles.render_scaling_csv(got, digits)


@st.composite
def failing_scaling_configs(draw):
    """Like :func:`scaling_configs`, with delta up to 0.1, dt up to 30 and k up to 3000, so
    that the k-step prefactor often overflows, and with templates that fail: b delta past 1
    or a past 1 at the largest delta, and a = 0 under auto dt."""
    top = draw(st.floats(1e-3, 0.1) | st.floats(0.05, 0.1))
    span = 10.0 ** draw(st.floats(1.0, 2.0))
    deltas = (top / span, top / span**0.5, top)
    amplitude = draw(st.sampled_from(("a", "b")))
    if amplitude == "a":
        ab = _grid(draw, st.floats(0.0, 1.1))
    else:
        ab = tuple(sorted({bd / top for bd in draw(st.lists(st.floats(0.01, 1.1), min_size=1,
                                                              max_size=2, unique=True))}))
    dt = (None,) if draw(st.integers(0, 3)) == 0 else _grid(
        draw, st.floats(0.01, 30.0) | st.floats(1.0, 1.6).map(lambda x: min(x / top, 30.0)))
    return cli.SweepConfig(amplitude=amplitude, ab=ab, delta=deltas, dt=dt,
                           k=_grid(draw, st.integers(1, 3000) | st.integers(2000, 3000)),
                           xi=_grid(draw, st.floats(0.0, 1.0)),
                           modes=(Mode.EXACT,))


# The corpus's scaling-overflow-later-template and scaling-failing-template: the first
# overflow is in the fourth template, and a failing template (b delta = 2) wins over an
# earlier template's overflow.
_LATER_OVERFLOW = cli.SweepConfig(amplitude="a", ab=(0.99, 0.999), delta=(0.01, 0.03, 0.1),
                                  dt=(1.0, 10.0), k=(1, 3000), xi=(0.5,), modes=(Mode.EXACT,))
_FAILING_TEMPLATE = cli.SweepConfig(amplitude="b", ab=(1.0, 20.0), delta=(0.01, 0.03, 0.1), dt=(1.0,),
                                    k=(10**7,), xi=(0.5,), modes=(Mode.EXACT,))
# The corpus's scaling-prefactor-pole: (a delta dt)^2 = 2 at delta = 0.0625, so the base of the
# k-step prefactor is exactly 0, where Python's ``**`` raises and IEEE 754 gives +inf.
_PREFACTOR_POLE = cli.SweepConfig(amplitude="b", ab=(5.333333333333333,),
                                  delta=(0.00625, 0.01976423537605237, 0.0625), dt=(24.0,), k=(1,),
                                  xi=(0.0,), modes=(Mode.EXACT,))


@settings(max_examples=100, deadline=None)
@given(failing_scaling_configs(),
       st.sampled_from(("all", "k_step_state")) | st.sampled_from(sorted(series.SCALING_QUANTITIES)))
@example(_LATER_OVERFLOW, "all")
@example(_FAILING_TEMPLATE, "all")
@example(_PREFACTOR_POLE, "all")
def test_scaling_study_raises_the_first_error_of_each_walk(config, quantity):
    try:
        want = _walked_scaling_rows(config, quantity)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as err:
            cli.scaling_study(config, quantity)
        assert str(err.value) == str(exc)
        return
    _assert_same_scaling_rows(cli.scaling_study(config, quantity), want)


def _same_entries(column, point) -> bool:
    """Each entry of ``column`` (the last axis) is the value of ``point`` at that index,
    equal with its sign in the real and imaginary parts, or non-finite on both sides."""
    for got, want in zip(np.asarray(column).reshape(-1).tolist(), np.asarray(point).reshape(-1).tolist()):
        for g, w in ((complex(got).real, complex(want).real), (complex(got).imag, complex(want).imag)):
            if not (_same(g, w) or not math.isfinite(g) and not math.isfinite(w)):
                return False
    return True


@st.composite
def form_points(draw):
    """One to six valid points, auto or explicit dt, k up to 10^18 and dts that make the
    k-step prefactor overflow."""
    points = []
    for _ in range(draw(st.integers(1, 6))):
        delta = draw(st.floats(1e-4, 0.5))
        dt = draw(st.none() | st.floats(0.01, 3.0) | st.floats(3.0, 1e4))
        k = draw(st.integers(1, K_MAX) | st.integers(1, 10**18) | st.integers(2**53, 2**53 + 4))
        try:
            points.append(ProtocolParams.from_b(draw(st.floats(0.0, 0.95)) / delta, delta, k, dt=dt,
                                                prior=draw(st.floats(0.0, 1.0))))
        except ValidationError:
            pass
    assume(points)
    return points


_FORMS = (series.one_step_survival, series.survival_k_paper, series.overlap_k_paper,
          series.baseline_paper_convention)


@settings(max_examples=100, deadline=None)
@given(form_points())
@example([ProtocolParams.from_b(1.0, 0.1, 10**7, dt=1.0), ProtocolParams.from_b(10.0, 0.01, 2**53 + 1)])
def test_series_forms_of_columns_are_the_forms_of_each_point(points):
    columns = protocol.Points(*(np.array([float(getattr(p, name)) for p in points])
                                for name in protocol.Points._fields))
    for form in _FORMS:
        got = form(columns)
        for i, p in enumerate(points):
            assert _same_entries(got[..., i], form(p)), (form, p)


# `zenodisc run` prints what the per-leaf reference prints, under either ledger.
@settings(max_examples=60, deadline=None)
@given(valid_params(k_max=ORACLE_K_MAX), st.integers(6, 17))
def test_run_report_has_the_bytes_of_the_per_leaf_reference(p, digits):
    for mode in Mode:
        report = protocol.run(p._replace(mode=mode))
        assert "".join(cli._render_run_report(report, digits)) == oracles.render_run_report(report, digits)


def _optimize_over_built_candidates(config: cli.SweepConfig, mode: Mode):
    """optimize with a validated ProtocolParams for each seed (k, dt) and, on a bracket, for
    each k's dt of least click mass, each priced by its run; the least (total, k, dt) wins,
    and the optimum's row comes from its walk."""
    build = ProtocolParams.from_a if config.amplitude == "a" else ProtocolParams.from_b
    (ab,), (delta,), (xi,) = config.ab, config.delta, config.xi
    candidates = {}
    for k in config.k:
        dts = [build(ab, delta, k, dt=dt, prior=xi, mode=mode).dt for dt in config.dt]
        if len(config.dt) > 1:
            dts.append(cli._least_click_mass_dt(delta, config.dt[0], config.dt[-1]))
        for dt in dts:
            params = build(ab, delta, k, dt=dt, prior=xi, mode=mode)
            candidates.setdefault((protocol.run(params).total_cost, k, params.dt), params)
    params = candidates[min(candidates)]
    return params, _report_row(protocol.run(params), _walked_exponent(params, config.auto_dt))


@st.composite
def optimize_configs(draw, brackets=False):
    """One point of either amplitude, auto dt or a grid of up to four dts (a bracket of two
    or more with ``brackets``) that may reach past pi / delta, and up to two ks. Some fail:
    b = 0 or a = 1 under auto dt."""
    amplitude = draw(st.sampled_from(("a", "b")))
    delta = draw(st.floats(1e-4, 0.6))
    ab = draw(st.floats(0.3, 1.0)) if amplitude == "a" else draw(st.floats(0.0, 0.95)) / delta
    dt = (None,) if not brackets and draw(st.booleans()) else tuple(sorted(draw(
        st.lists(st.floats(0.01, 60.0), min_size=2 if brackets else 1, max_size=4, unique=True))))
    return cli.SweepConfig(amplitude=amplitude, ab=(ab,), delta=(delta,), dt=dt,
                           k=_grid(draw, st.integers(1, K_MAX)), xi=(draw(st.floats(0.0, 1.0)),),
                           modes=(draw(st.sampled_from(Mode)),))


# A bracket reaching past pi / delta, where the click mass is periodic in dt: its least
# total is at dt = pi / delta, where M_k = 0, not at either end.
_REPRO = cli.SweepConfig(amplitude="b", ab=(9.29364586521526,), delta=(0.08486942153990186,),
                         dt=(3.4382922089011885, 41.81160238104807), k=(179,), xi=(0.3556961698229455,),
                         modes=(Mode.EXACT,))


@settings(max_examples=60, deadline=None)
@given(optimize_configs())
@example(_REPRO)
def test_optimize_finds_what_a_search_over_built_trials_finds(config):
    mode = config.modes[0]
    try:
        want = _optimize_over_built_candidates(config, mode)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as err:
            cli.optimize(config, mode)
        assert str(err.value) == str(exc)
        return
    assert cli.optimize(config, mode) == want


# Slack of the dense scan: a few ulp of the least total, relative, plus what the rounding
# of x = delta dt leaves of M_k at a multiple of pi / delta, where M_k is 0 in exact
# arithmetic: |x - n pi| <= 4 eps delta hi, so M_k <= k (4 eps delta hi)^2 / 2, and either
# ledger's total rises by at most that much.
SCAN_REL = 8 * EPS


@settings(max_examples=25, deadline=None)
@given(optimize_configs(brackets=True))
@example(_REPRO)
def test_no_dt_of_a_bracket_prices_below_the_optimum(config):
    mode = config.modes[0]
    build = ProtocolParams.from_a if config.amplitude == "a" else ProtocolParams.from_b
    (ab,), (delta,), (xi,) = config.ab, config.delta, config.xi
    lo, hi = config.dt[0], config.dt[-1]
    _, row = cli.optimize(config, mode)
    multiples = [n * math.pi / delta for n in range(math.ceil(lo * delta / math.pi),
                                                    math.floor(hi * delta / math.pi) + 1)]
    scan = np.linspace(lo, hi, 2001).tolist() + [dt for dt in multiples if lo <= dt <= hi]
    least = min(protocol.run(build(ab, delta, k, dt=dt, prior=xi, mode=mode)).total_cost
                for k in config.k for dt in scan)
    slack = SCAN_REL * least + max(config.k) * (4 * EPS * delta * hi) ** 2
    assert row.total_cost <= least + slack


# The exact total as a function of the click mass M alone, with beta = b^2 delta^2 and
# a^2 = 1 - beta: f(M) = M min(xi, 1 - xi) + (1 - M) H(xi, O^2), O = |beta - M| / (1 - M),
# for 0 <= M <= a^2 / 2.
# At 50 digits f never decreases; the slack is 1e-45 relative, far above the decimal
# rounding and far below any float difference of two totals.
@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0, exclude_max=True) | st.floats(0.0, 1e-12),
       st.floats(0.0, 1.0), st.floats(0.0, 1.0))
@example(1e-300, 1e-300, 0.25, 0.5)
@example(1.0 - 2.0**-53, 0.6, 0.0, 1.0)
@example(0.5, 0.0, 0.0, 1e-300)
def test_the_exact_total_never_falls_as_the_click_mass_rises(xi, beta, u1, u2):
    assume(u1 < u2)
    with localcontext() as ctx:
        ctx.prec = oracles.DECIMAL_DIGITS
        m1, m2 = (Decimal(u) * (1 - Decimal(beta)) / 2 for u in (u1, u2))
    f1, f2 = (oracles.decimal_exact_total(xi, beta, m) for m in (m1, m2))
    assert f1 - f2 <= Decimal("1e-45") * f1


# The least click mass, M_k = 0 at dt = pi / delta, prices the exact ledger at the
# Helstrom floor: f(0) is baseline_exact.
def test_the_repro_optimum_is_the_helstrom_floor():
    params, row = cli.optimize(_REPRO, Mode.EXACT)
    assert (params.k, params.dt) == (179, math.pi / params.delta) == (179, 37.01677938399468)
    assert row.total_cost == row.baseline_exact == 0.09837720143509032

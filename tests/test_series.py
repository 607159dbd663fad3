import importlib
import math

import numpy as np
import pytest

from zenodisc import ValidationError, protocol, series
from zenodisc.protocol import ProtocolParams

import oracles

DELTAS = series.DEFAULT_DELTAS


def params(b=10.0, delta=1e-3, k=5, dt=None, **kw) -> ProtocolParams:
    return ProtocolParams.from_b(b, delta, k, dt=dt, **kw)


# ------------------------------------------------------------- state forms

def test_one_step_state_delta_zero():
    p = params(delta=0.0, b=0.0, k=1, dt=1.0)
    comps = series.one_step_state(p, 0)
    assert np.allclose(comps, [p.a, 0, 0, 0, 0], atol=1e-15)


def test_one_step_state_mirror_symmetry():
    p = params(k=1, dt=1.3)
    h0 = series.one_step_state(p, 0)
    h1 = series.one_step_state(p, 1)
    assert np.allclose(h1, np.asarray(h0)[[3, 2, 1, 0, 4]], atol=0)


def test_one_step_state_tracks_exact_evolution():
    p = params(k=1, dt=1.0)
    exact = oracles.expm_evolve(p.e0, p.e1, p.delta, p.dt, oracles.candidate_pair(p.b, p.delta)[0])
    gap = np.max(np.abs(np.abs(exact) - np.abs(series.one_step_state(p, 0))))
    assert gap <= p.delta**3


def test_one_step_state_validates_hypothesis():
    with pytest.raises(ValidationError):
        series.one_step_state(params(), 2)


def test_k_step_state_reduces_at_k_one():
    p = params(k=1, dt=0.9)
    single = series.one_step_state(p, 0)
    iterated = series.k_step_state(p, 0)
    pref = (1.0 - 0.5 * p.a**2 * p.delta**2 * p.dt**2) ** -0.5
    # Leading, empty, and top components agree; the null projection halves
    # the transverse amplitude and mirrors it onto the third slot.
    assert iterated[0] == pytest.approx(pref * single[0], abs=1e-15)
    assert iterated[4] == pytest.approx(pref * single[4], abs=1e-15)
    assert iterated[3] == 0.0
    assert iterated[1] == pytest.approx(pref * single[1] / 2, abs=1e-15)
    assert iterated[2] == pytest.approx(-pref * single[1] / 2, abs=1e-15)


def test_k_step_state_transverse_amplitude_linear_in_k():
    base = abs(series.k_step_state(params(k=1, dt=0.7), 0)[1])
    for k in (2, 5, 9):
        mag = abs(series.k_step_state(params(k=k, dt=0.7), 0)[1])
        assert mag == pytest.approx(k * base, rel=1e-4)


def test_k_step_state_matches_survivor_magnitudes():
    p = params(k=5)
    report = protocol.run(p)
    gap = np.max(np.abs(np.abs(report.survived) - np.abs(series.k_step_state(p, 0))))
    assert gap <= 100 * p.delta**3
    fit = series.scaling_fits(["k_step_state"], DELTAS, [p], auto_dt=True)[0]
    assert fit.exponent >= 2.5


def test_k_step_state_mirror():
    p = params(k=4)
    h0 = series.k_step_state(p, 0)
    h1 = series.k_step_state(p, 1)
    assert np.allclose(np.abs(h1), np.abs(np.asarray(h0)[[3, 2, 1, 0, 4]]), atol=0)


def test_magnitude_gap_is_not_finite_where_a_component_is_not():
    # A NaN in a middle component makes the gap NaN, as numpy's max did; Python's max
    # would return the largest of the others. The parts of 1.5e308 (1 + i) are finite and
    # its magnitude is not, where Python's abs raises: the gap is inf.
    exact = (1.0, 0.5j, complex(math.nan, 0.0), 0.25, 0.0)
    approx = (0.5, 0.0, 0.0, 0.0, 2.0)
    assert math.isnan(series._magnitude_gap(exact, approx))
    assert series._magnitude_gap(exact[:2] + exact[3:], approx[:2] + approx[3:]) == 2.0
    assert series._magnitude_gap((1.5e308 + 1.5e308j, 0.0), (0.0, 0.0)) == math.inf


# ---------------------------------------------------------------- survival

def test_one_step_survival_value():
    p = params(k=1, dt=2.0)
    assert series.one_step_survival(p) == 1.0 - 0.5 * p.a**2 * p.delta**2 * 4.0


def test_survival_k_paper_examples():
    assert series.survival_k_paper(params(delta=0.0, b=0.0, k=7, dt=1.0)) == 1.0
    p = params(k=5, delta=1e-3)
    expected = 1.0 - 0.25 * p.a**2 * 5 * 1e-6 * p.dt**2
    assert series.survival_k_paper(p) == pytest.approx(expected, abs=1e-18)


def test_survival_k_paper_quarter_coefficient_is_the_outlier():
    # The exact cumulative survival tracks the half-coefficient compounding;
    # the literal quarter-coefficient form misses by a relative factor ~2.
    p = params(k=5)
    exact = protocol.run(p).survival_trajectory[-1][0]
    half_form = 1.0 - 0.5 * p.a**2 * p.k * p.delta**2 * p.dt**2
    literal_form = series.survival_k_paper(p)
    assert abs(exact - half_form) < 1e-3 * abs(exact - literal_form)
    fit = series.scaling_fits(["survival_k"], DELTAS, [p], auto_dt=True)[0]
    assert 1.8 <= fit.exponent <= 2.2  # the literal form is off at order delta^2


def test_survival_step_residual_is_fourth_order():
    fit = series.scaling_fits(["survival_step"], DELTAS, [params(k=1, dt=1.0)])[0]
    assert fit.exponent >= 3.5


# ----------------------------------------------------------------- overlap

def test_overlap_k_paper_zero_condition():
    # The literal expression vanishes when dt = b^2 / (2 a^2 k^2).
    b, delta, k = 10.0, 0.01, 5
    a = math.sqrt(1 - (b * delta) ** 2)
    p = ProtocolParams(a=a, b=b, delta=delta, dt=b**2 / (2 * a**2 * k**2), k=k)
    assert abs(series.overlap_k_paper(p)) <= 1e-15


def test_overlap_k_paper_delta_zero():
    assert series.overlap_k_paper(params(delta=0.0, b=0.0, k=3, dt=1.0)) == 0.0


def test_overlap_k_paper_vs_exact_scaling_is_reported():
    fit = series.scaling_fits(["overlap_vs_series"], DELTAS, [params(k=5)], auto_dt=True)[0]
    assert not fit.indeterminate
    assert 1.5 <= fit.exponent <= 2.5


def test_final_overlap_scaling_under_cancellation_condition():
    # Exact dynamics leave the conditioned overlap at order delta^2 even
    # with dt solved from 2*k*a*dt = b; the claimed cancellation to o(delta^2)
    # does not survive exact accounting, and the fit records that.
    for k in (1, 5, 20):
        fit = series.scaling_fits(["final_overlap"], DELTAS, [params(k=k)], auto_dt=True)[0]
        assert 1.8 <= fit.exponent <= 2.2


# ---------------------------------------------------------------- baselines

def test_baseline_paper_convention_fixture_value():
    # Frozen closed form at xi = 1/2, b = 10, delta = 0.01.
    val = series.baseline_paper_convention(params(delta=0.01, k=1, dt=1.0))
    assert val == pytest.approx(0.0025062814466900174, abs=1e-16)
    assert val - 0.0025 == pytest.approx(6.25e-6, abs=5e-8)  # quartic remainder


def test_baseline_paper_convention_b_zero():
    assert series.baseline_paper_convention(params(b=0.0, delta=0.05, k=1, dt=1.0)) == 0.0


def test_baseline_conventions_differ_by_overlap_factor():
    p = params(delta=0.01, k=1, dt=1.0)
    report = protocol.run(p)
    ratio = report.baseline_exact / report.baseline_paper
    assert ratio == pytest.approx((p.b * p.delta) ** 2, rel=0.05)


def test_baseline_residual_is_fourth_order():
    fit = series.scaling_fits(["baseline"], DELTAS, [params(k=1, dt=1.0)])[0]
    assert fit.exponent >= 3.5


def test_click_prob_residual_is_fourth_order():
    fit = series.scaling_fits(["click_prob"], DELTAS, [params(k=1, dt=1.0)])[0]
    assert fit.exponent >= 3.5


# ------------------------------------------------------------ original cost

def test_original_cost_requires_cancellation_condition():
    with pytest.raises(ValidationError):
        series.original_cost(params(k=5, dt=1.0))


def test_original_cost_identities():
    p = params(k=5, delta=1e-3)  # auto dt satisfies the condition
    value = series.original_cost(p)
    assert value == pytest.approx(p.a**2 * p.k**2 * p.dt**2 * p.delta**2, rel=1e-15)
    # Equal to the quadratic baseline via b^2 = 4 k^2 a^2 dt^2.
    assert value == pytest.approx(0.25 * (p.b * p.delta) ** 2, rel=1e-12)
    # Identity against the idealized total: ratio is exactly 4k.
    assert value / protocol.total_cost_paper_mode(p) == pytest.approx(4 * p.k, rel=1e-12)


def test_original_cost_ratio_identity_random_params():
    rng = np.random.default_rng(808)
    for _ in range(50):
        delta = rng.uniform(1e-4, 0.1)
        bd = rng.uniform(1e-3, 0.9)
        p = params(b=bd / delta, delta=delta, k=int(rng.integers(1, 30)))
        ratio = series.original_cost(p) / protocol.total_cost_paper_mode(p)
        assert ratio == pytest.approx(4 * p.k, rel=1e-12)


# ------------------------------------------------------------- fit plumbing

def test_fit_power_law_recovers_synthetic_exponent():
    deltas = (1e-2, 10**-2.5, 1e-3)
    fit = series.fit_power_laws(deltas, [[0.7 * d**3 for d in deltas]])[0]
    assert fit.exponent == pytest.approx(3.0, abs=1e-9)
    assert fit.intercept == pytest.approx(math.log(0.7), abs=1e-9)
    assert not fit.indeterminate


def test_fit_power_law_flags_noise_floor():
    deltas = (1e-2, 10**-2.5, 1e-3)
    fit = series.fit_power_laws(deltas, [[0.0, 0.0, 0.0]])[0]
    assert fit.indeterminate
    assert math.isnan(fit.exponent)
    assert fit.n_floored == 3


def test_fit_power_law_validation():
    with pytest.raises(ValidationError):
        series.fit_power_laws((1e-2, 1e-3), [(1.0, 1.0)])  # too few points
    with pytest.raises(ValidationError):
        series.fit_power_laws((1e-2, 9e-3, 8e-3), [(1.0, 1.0, 1.0)])  # narrow span
    with pytest.raises(ValidationError):
        series.fit_power_laws((1e-2, 10**-2.5, 1e-3), [(1.0, -1.0, 1.0)])


def _same(got, want) -> bool:
    """Equal with ==, where NaN equals only NaN; tuples compare entry by entry."""
    if isinstance(got, tuple):
        return len(got) == len(want) and all(map(_same, got, want))
    return got == want or (isinstance(got, float) and math.isnan(got) and math.isnan(want))


def test_fit_power_laws_equals_the_fit_of_each_column():
    # A fit of many columns gives each column's own fit, bit for bit: a clean
    # column, one with floored entries, one all at the floor (indeterminate),
    # and columns with a NaN or an inf residual, which fit NaN and leave the
    # others untouched. np.polyfit fits the last column's exponent 9.4 ulp
    # from the exact line.
    deltas = (1e-2, 10**-2.5, 1e-3, 10**-3.4)
    columns = [[0.7 * d**3 for d in deltas], [3e-7, 2e-15, 4e-9, 0.0], [0.0, 1e-15, 0.0, 5e-16],
               [1.0, math.nan, 0.1, 0.01], [math.inf, 2.0, 0.5, 0.2], [2.5 * d**2 for d in deltas],
               [6.01e-08, 6e-10, 6e-12, 1.51e-13]]
    batch = series.fit_power_laws(deltas, columns)
    assert len(batch) == len(columns)
    for column, fit in zip(columns, batch):
        one = series.fit_power_laws(deltas, [column])[0]
        for name in ("exponent", "intercept", "sample_deltas", "residuals", "n_floored", "indeterminate"):
            assert _same(getattr(fit, name), getattr(one, name)), name
        # The exact least-squares line of the same logs, to FIT_ULPS ulp.
        if fit.n_floored < len(deltas) and all(map(math.isfinite, column)):
            logs = [math.log(max(r, series.NOISE_FLOOR)) for r in column]
            assert (fit.exponent, fit.intercept) == oracles.least_squares_line(map(math.log, deltas), logs)
    assert [f.n_floored for f in batch] == [0, 2, 4, 0, 0, 0, 0]
    assert [f.indeterminate for f in batch] == [False, False, True, False, False, False, False]
    assert all(math.isnan(f.exponent) and math.isnan(f.intercept) for f in batch[2:5])
    assert batch[0].exponent == pytest.approx(3.0, abs=1e-9)
    assert series.fit_power_laws(deltas, []) == []


def test_fit_power_laws_rejects_ragged_columns():
    with pytest.raises(ValidationError, match="^deltas and residuals must have equal length$"):
        series.fit_power_laws((1e-2, 10**-2.5, 1e-3), [[1e-3, 1e-4, 1e-5], [1e-3, 1e-4]])


def test_fit_power_law_rejects_a_zero_delta():
    with pytest.raises(ValidationError, match="positive"):
        series.fit_power_laws((0.0, 1e-2, 1e-1), [(1.0, 1.0, 1.0)])


def test_scaling_residual_rejects_unknown_quantity():
    with pytest.raises(ValidationError):
        series.scaling_fits(["nonsense"], DELTAS, [params()])
    with pytest.raises(ValidationError):
        series.scaling_fits(["click_prob", "nonsense"], DELTAS, [params()])
    with pytest.raises(ValidationError):
        series.quantity_flag("nonsense")


def test_scaling_fits_of_an_empty_grid():
    # No delta is too short a grid; no template is no fit.
    with pytest.raises(ValidationError, match="at least 3 grid points"):
        series.scaling_fits(["baseline"], (), [params()])
    assert series.scaling_fits(["baseline"], DELTAS, []) == []


# ---------------------------------------------------------------- checklist

def test_expression_checklist_is_complete():
    assert len(series.EXPRESSIONS) == 8
    names = [e.name for e in series.EXPRESSIONS]
    assert len(set(names)) == 8
    for entry in series.EXPRESSIONS:
        # The name is the function's own, under which its module holds it.
        assert getattr(importlib.import_module(entry.evaluate.__module__), entry.name) is entry.evaluate
        assert entry.stated_error_order in (2, 3, 4)
    flagged = {e.name for e in series.EXPRESSIONS if e.suspect}
    assert flagged == {"overlap_k_paper", "survival_k_paper"}

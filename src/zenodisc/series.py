"""Literal second-order series forms and their residuals against the exact engine.

Every function here evaluates a fixed truncated small-delta expression
literally, including two expressions whose internal consistency is doubtful.
Those are evaluated verbatim anyway and are flagged in EXPRESSIONS; the job
of this module is to quantify discrepancies, never to silently correct them.
Overall e^{i E t} phase factors are dropped from the state forms
(comparisons use component magnitudes and |overlap| only), while relative
imaginary units between components are kept.

The delta-scaling fits measure |exact - series| on a small delta grid and
report the log-log slope, the empirical truncation order. The forms take one
point: the state forms return 5-tuples of complex, the scalar forms a float
(squares as products, k a float). :func:`scaling_fits` evaluates a study
point by point in floats, from one :func:`protocol.run` report each, and
:func:`fit_power_laws` fits each residual sequence in closed form through
``math``, so a scaling study imports no numpy.
"""

from __future__ import annotations

import math
from collections import namedtuple
from operator import mul
from types import MappingProxyType

from . import protocol
from .helstrom import ValidationError, helstrom_cost
from .protocol import ProtocolParams, ProtocolReport, shown

# Residuals below this are double-precision noise, not series error.
NOISE_FLOOR = 1e-14
# Default grid spans one decade and stays above the noise floor even for
# fourth-order quantities.
DEFAULT_DELTAS = (1e-2, 10**-2.5, 1e-3)


def one_step_state(params: ProtocolParams, hypothesis: int) -> tuple[complex, ...]:
    """Evolved candidate state after one dt, truncated at second order.

    Unnormalized; hypothesis 1 is the component mirror (1<->4, 2<->3) of
    hypothesis 0. Phases e^{i E t} are stripped, the relative imaginary unit
    on the transverse component is kept.
    """
    a, b, d, dt = params.a, params.b, params.delta, params.dt
    lead = a * (1.0 - 0.5 * (dt * dt) * (d * d))
    off = 1j * d * a * dt
    return _state((lead, off, 0.0, 0.0, d * b), hypothesis)


def k_step_state(params: ProtocolParams, hypothesis: int) -> tuple[complex, ...]:
    """Null-branch state after k evolve-and-ask iterations, truncated series form.

    Carries the compound renormalization prefactor (1 - a^2 delta^2 dt^2 / 2)^(-k/2),
    Python's ``**`` (complex for a negative base at odd k), inf where it overflows or the
    base is 0.
    The fourth component is written with the sign it is written with; magnitude comparisons
    are sign-blind.
    """
    a, b, d, dt, k = params.a, params.b, params.delta, params.dt, params.k * 1.0
    pref = _or_inf(pow, 1.0 - 0.5 * (a * a) * (d * d) * (dt * dt), -k / 2.0)
    lead = a * (1.0 - 0.25 * k * (k + 1.0) * (dt * dt) * (d * d))
    off = 0.5j * k * d * a * dt
    fourth = -0.25 * k * (k - 1.0) * (d * d) * a * (dt * dt)
    return tuple(pref * c for c in _state((lead, off, -off, fourth, d * b), hypothesis))


def one_step_survival(params: ProtocolParams) -> float:
    """Single-step null-outcome probability 1 - a^2 delta^2 dt^2 / 2."""
    return 1.0 - 0.5 * (params.a * params.a) * (params.delta * params.delta) * (params.dt * params.dt)


def survival_k_paper(params: ProtocolParams) -> float:
    """k-step cumulative survival in its literal form 1 - a^2 k delta^2 dt^2 / 4.

    Flagged: see its entry in EXPRESSIONS.
    """
    p = params
    return 1.0 - 0.25 * (p.a * p.a) * p.k * (p.delta * p.delta) * (p.dt * p.dt)


def overlap_k_paper(params: ProtocolParams) -> float:
    """k-step candidate overlap in its literal form.

    Evaluates (1 + a^2 k delta^2 dt^2 / 4)(b^2 delta^2 - 2 a^2 k^2 dt delta^2)
    with the literal single power of dt in the second term.
    Flagged: see its entry in EXPRESSIONS.
    """
    a, b, d, dt, k = params.a, params.b, params.delta, params.dt, params.k * 1.0
    a2, d2 = a * a, d * d
    return (1.0 + 0.25 * a2 * k * d2 * (dt * dt)) * ((b * b) * d2 - 2.0 * a2 * (k * k) * dt * d2)


def baseline_paper_convention(params: ProtocolParams) -> float:
    """Helstrom baseline with the overlap magnitude b^2 delta^2 in the T slot.

    The alternative convention squares the overlap; that baseline is
    ``ProtocolReport.baseline_exact``. Reports print both side by side.
    """
    bd = params.b * params.delta
    return helstrom_cost(params.prior, bd * bd, params.a * params.a)


def original_cost(params: ProtocolParams) -> float:
    """Single-shot discrimination cost a^2 k^2 dt^2 delta^2.

    Valid only under the cancellation condition 2*k*a*dt = b, where it equals
    baseline_paper_convention up to fourth order via b^2 = 4 k^2 a^2 dt^2.
    """
    gap = 2.0 * params.k * params.a * params.dt - params.b
    if abs(gap) > 1e-9 * max(1.0, abs(params.b)):
        raise ValidationError(
            f"original_cost requires 2*k*a*dt = b; residual {gap!r} exceeds tolerance"
        )
    return params.a**2 * params.k**2 * params.dt**2 * params.delta**2


ScalingFit = namedtuple("ScalingFit", "exponent intercept sample_deltas residuals n_floored indeterminate")
ScalingFit.__doc__ = """Least-squares slope of log residual against log delta.

residuals holds the raw values; entries below NOISE_FLOOR are floored
before fitting and counted in n_floored. When every point sits at the
floor the fit is indeterminate and exponent/intercept are NaN.
"""


def fit_power_laws(deltas, columns) -> list[ScalingFit]:
    """Fit residual ~ C delta^p to each residual column, a sequence of floats, on one delta
    grid, in closed form (see :class:`ScalingFit` for the flooring rules).

    With u = log delta, y = log of the floored residual (``math.log`` per entry) and
    D = n sum u^2 - (sum u)^2, the slope is (n sum uy - sum u sum y) / D and the intercept
    (sum y sum u^2 - sum u sum uy) / D. The logs are scaled to ints by their power-of-2
    denominators, so every sum is exact and each coefficient is one correctly rounded int
    division: the exact least-squares line of the float logs, to half an ulp. A column with a
    non-finite log fits NaN; one whose every entry is floored is indeterminate.
    """
    ds = tuple(map(float, deltas))
    cols = [tuple(map(float, rs)) for rs in columns]  # a float keeps its object
    if any(len(rs) != len(ds) for rs in cols):
        raise ValidationError("deltas and residuals must have equal length")
    if len(ds) < 3:
        raise ValidationError("scaling fits need at least 3 grid points")
    if any(d <= 0.0 for d in ds):
        raise ValidationError("delta grid entries must be positive")
    if max(ds) / min(ds) < 10.0 - 1e-9:
        raise ValidationError("delta grid must span at least one decade")
    if any(r < 0.0 for rs in cols for r in rs):
        raise ValidationError("residuals must be nonnegative")
    n = len(ds)
    us, u_scale = _integers([math.log(d) for d in ds])
    su, suu = sum(us), sum(map(mul, us, us))
    det = n * suu - su * su  # > 0: the grid spans a decade
    fits = []
    for rs in cols:
        n_floored = len([r for r in rs if r < NOISE_FLOOR])
        ys = [math.log(r if not r < NOISE_FLOOR else NOISE_FLOOR) for r in rs]  # a NaN stays NaN
        slope = intercept = math.nan
        if n_floored < n and all(map(math.isfinite, ys)):
            ys, y_scale = _integers(ys)
            sy, suy = sum(ys), sum(map(mul, us, ys))
            slope = (n * suy - su * sy) * u_scale / (det * y_scale)
            intercept = (sy * suu - su * suy) / (det * y_scale)
        fits.append(ScalingFit(slope, intercept, ds, rs, n_floored, n_floored == n))
    return fits


def _integers(values: list[float]) -> tuple[list[int], int]:
    """Finite floats as ints times their least common denominator, a power of 2, and it."""
    ratios = [v.as_integer_ratio() for v in values]
    scale = max(d for _, d in ratios)
    return [m * (scale // d) for m, d in ratios], scale


def _or_inf(fn, *args):
    """``fn(*args)``, inf where it overflows: Python's ``**`` raises there, and so does ``abs``
    of a complex whose parts are finite but whose magnitude is not. ``**`` also raises at
    +0 to a negative power, which is +inf in IEEE 754; a base 1.0 - x is never -0."""
    try:
        return fn(*args)
    except (OverflowError, ZeroDivisionError):
        return math.inf


def _state(components, hypothesis: int) -> tuple[complex, ...]:
    """The components as a complex 5-tuple, 1<->4, 2<->3 mirrored for hypothesis 1."""
    if hypothesis not in (0, 1):
        raise ValidationError(f"hypothesis must be 0 or 1, got {hypothesis!r}")
    state = tuple(map(complex, components))
    return state[3::-1] + state[4:] if hypothesis else state


def _magnitude_gap(exact, approx) -> float:
    """The largest ||e| - |s|| over the components, NaN where one is NaN (``max`` may drop it)."""
    gaps = [abs(_or_inf(abs, e) - _or_inf(abs, s)) for e, s in zip(exact, approx)]
    return math.nan if any(map(math.isnan, gaps)) else max(gaps)


# Residuals |exact - series| of a run report; the one-step state and the baseline read only its params.

def _residual_click_prob(report: ProtocolReport) -> float:
    p = report.params
    return abs(report.first_click - 0.5 * (p.a * p.a) * (p.delta * p.delta) * (p.dt * p.dt))


def _residual_one_step_state(report: ProtocolReport) -> float:
    # The evolved state's magnitudes: (a, 0, 0, 0, b delta) rotates inside
    # levels 1-2 by delta dt, and e0, e1 enter only phases.
    p = report.params
    x = p.delta * p.dt
    exact = (p.a * abs(math.cos(x)), p.a * abs(math.sin(x)), 0.0, 0.0, p.b * p.delta)
    return _magnitude_gap(exact, one_step_state(p, 0))


def _residual_k_step_state(report: ProtocolReport) -> float:
    return _magnitude_gap(report.survived, k_step_state(report.params, 0))


def _residual_survival_step(report: ProtocolReport) -> float:
    return abs((1.0 - report.first_click) - one_step_survival(report.params))


def _residual_survival_k(report: ProtocolReport) -> float:
    return abs(report.final_survival - survival_k_paper(report.params))


def _residual_overlap_vs_series(report: ProtocolReport) -> float:
    return abs(report.final_overlap - abs(overlap_k_paper(report.params)))


def _residual_final_overlap(report: ProtocolReport) -> float:
    # Deviation from the claimed exact cancellation to zero.
    return report.final_overlap


def _residual_baseline(report: ProtocolReport) -> float:
    bd = report.params.b * report.params.delta
    return abs(baseline_paper_convention(report.params) - 0.25 * (bd * bd))


class Expression(namedtuple("Expression", "evaluate stated_error_order suspect residuals",
                            defaults=(None, MappingProxyType({})))):
    """One literal series expression, named by its function, with its doubt, if any, and the
    scaling quantities whose series side it is (name -> residual of a run report).
    """

    __slots__ = ()
    name = property(lambda self: self.evaluate.__name__)


# The one table of series expressions; coverage tests enumerate it.
EXPRESSIONS: tuple[Expression, ...] = (
    Expression(baseline_paper_convention, 4,
               residuals={"baseline": _residual_baseline}),
    Expression(one_step_state, 3,
               residuals={"one_step_state": _residual_one_step_state}),
    Expression(one_step_survival, 3,
               residuals={"click_prob": _residual_click_prob,
                          "survival_step": _residual_survival_step}),
    Expression(k_step_state, 3,
               residuals={"k_step_state": _residual_k_step_state}),
    Expression(survival_k_paper, 3,
               suspect=("k-step coefficient 1/4 disagrees with compounding the per-step "
                        "decline a^2 delta^2 dt^2 / 2, which gives k/2"),
               residuals={"survival_k": _residual_survival_k}),
    Expression(overlap_k_paper, 3,
               suspect=("second term carries a single power of dt where dimensional "
                        "consistency requires dt**2"),
               residuals={"overlap_vs_series": _residual_overlap_vs_series,
                          "final_overlap": _residual_final_overlap}),
    Expression(protocol.total_cost_paper_mode, 3),
    Expression(original_cost, 4),
)

# Views of the table: the flagged expressions' doubts, and each scaling
# quantity's expression.
SUSPECT_FLAGS = {e.name: e.suspect for e in EXPRESSIONS if e.suspect}
SCALING_QUANTITIES = {q: e for e in EXPRESSIONS for q in e.residuals}


def _tested_expression(quantity: str) -> Expression:
    if quantity not in SCALING_QUANTITIES:
        raise ValidationError(
            f"unknown scaling quantity '{shown(quantity)}'; options: {sorted(SCALING_QUANTITIES)}")
    return SCALING_QUANTITIES[quantity]


def quantity_flag(quantity: str) -> str:
    """The name of the expression a quantity tests when that one is flagged, else ''."""
    entry = _tested_expression(quantity)
    return entry.name if entry.suspect else ""


def scaling_fits(quantities, deltas, templates, auto_dt: bool = False) -> list[ScalingFit]:
    """The fit of each quantity over the delta grid for each template, template-major.

    Each template moves across the grid with b, k and the prior held (a re-derived) and dt
    held or, with auto_dt, re-solved per point. Every point's ProtocolParams is built first
    (the first failing point raises), then each is priced by :func:`protocol.run` and its
    residuals read off the report in floats; the first that is not finite, by template, quantity
    and delta, raises. One :func:`fit_power_laws` fits every column."""
    residuals = [_tested_expression(q).residuals[q] for q in quantities]  # rejects unknown names
    grids = [[ProtocolParams.from_b(t.b, d, t.k, None if auto_dt else t.dt, prior=t.prior) for d in deltas]
             for t in templates]
    columns = []
    for grid in grids:
        reports = [protocol.run(p) for p in grid]
        for q, residual in zip(quantities, residuals):
            columns.append([residual(report) for report in reports])
            if not all(map(math.isfinite, columns[-1])):
                p = grid[list(map(math.isfinite, columns[-1])).index(False)]
                raise ValidationError(f"{q} overflows at b={p.b!r}, delta={p.delta!r}, dt={p.dt!r}, "
                                      f"k={shown(p.k)}")
    return fit_power_laws(deltas, columns)

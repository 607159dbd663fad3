"""Literal second-order series forms and their residuals against the exact engine.

Every function here evaluates a fixed truncated small-delta expression
literally, including two expressions whose internal consistency is doubtful.
Those are evaluated verbatim anyway and are flagged in EXPRESSIONS; the job
of this module is to quantify discrepancies, never to silently correct them.
Overall e^{i E t} phase factors are dropped from the state forms
(comparisons use component magnitudes and |overlap| only), while relative
imaginary units between components are kept.

The delta-scaling fits measure |exact - series| on a small delta grid and
report the log-log slope, which is the empirical truncation order. Every
residual reads one :class:`FinalStep` record of its grid point: the first
click probability and, at the final step, the survival, the survived overlap
and the survived state. :func:`scaling_fits` takes the records of a whole
study from one :func:`protocol.tree` call, with no report or per-step array,
and fits every residual column with one least-squares solve.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import protocol
from .helstrom import helstrom_cost
from .protocol import ProtocolParams, rescale_delta, shown
from .qcore import ValidationError

# Residuals below this are double-precision noise, not series error.
NOISE_FLOOR = 1e-14
# Default grid spans one decade and stays above the noise floor even for
# fourth-order quantities.
DEFAULT_DELTAS = (1e-2, 10**-2.5, 1e-3)


def one_step_state(params: ProtocolParams, hypothesis: int) -> np.ndarray:
    """Evolved candidate state after one dt, truncated at second order.

    Unnormalized; hypothesis 1 is the component mirror (1<->4, 2<->3) of
    hypothesis 0. Phases e^{i E t} are stripped, the relative imaginary unit
    on the transverse component is kept.
    """
    a, b, d, dt = params.a, params.b, params.delta, params.dt
    lead = a * (1.0 - 0.5 * dt**2 * d**2)
    off = 1j * d * a * dt
    return _mirrored(np.array([lead, off, 0.0, 0.0, d * b], dtype=np.complex128), hypothesis)


def k_step_state(params: ProtocolParams, hypothesis: int) -> np.ndarray:
    """Null-branch state after k evolve-and-ask iterations, truncated series form.

    Carries the compound renormalization prefactor
    (1 - a^2 delta^2 dt^2 / 2)^(-k/2). The fourth component is written with
    the sign it is written with; magnitude comparisons are sign-blind.
    """
    a, b, d, dt, k = params.a, params.b, params.delta, params.dt, params.k
    pref = (1.0 - 0.5 * a**2 * d**2 * dt**2) ** (-k / 2.0)
    lead = a * (1.0 - 0.25 * k * (k + 1) * dt**2 * d**2)
    off = 0.5j * k * d * a * dt
    fourth = -0.25 * k * (k - 1) * d**2 * a * dt**2
    if not all(math.isfinite(abs(pref * c)) for c in (lead, off, fourth)):
        raise OverflowError(f"k_step_state overflows at k={k!r}")
    return pref * _mirrored(np.array([lead, off, -off, fourth, d * b], dtype=np.complex128), hypothesis)


def one_step_survival(params: ProtocolParams) -> float:
    """Single-step null-outcome probability 1 - a^2 delta^2 dt^2 / 2."""
    return 1.0 - 0.5 * params.a**2 * params.delta**2 * params.dt**2


def survival_k_paper(params: ProtocolParams) -> float:
    """k-step cumulative survival in its literal form 1 - a^2 k delta^2 dt^2 / 4.

    Flagged: see its entry in EXPRESSIONS.
    """
    return 1.0 - 0.25 * params.a**2 * params.k * params.delta**2 * params.dt**2


def overlap_k_paper(params: ProtocolParams) -> float:
    """k-step candidate overlap in its literal form.

    Evaluates (1 + a^2 k delta^2 dt^2 / 4)(b^2 delta^2 - 2 a^2 k^2 dt delta^2)
    with the literal single power of dt in the second term.
    Flagged: see its entry in EXPRESSIONS.
    """
    a, b, d, dt, k = params.a, params.b, params.delta, params.dt, params.k
    return (1.0 + 0.25 * a**2 * k * d**2 * dt**2) * (b**2 * d**2 - 2.0 * a**2 * k**2 * dt * d**2)


def baseline_paper_convention(params: ProtocolParams) -> float:
    """Helstrom baseline with the overlap magnitude b^2 delta^2 in the T slot.

    The alternative convention squares the overlap; that baseline is
    ``ProtocolReport.baseline_exact``. Reports print both side by side.
    """
    return helstrom_cost(params.prior, (params.b * params.delta) ** 2, params.a**2)


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


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares slope of log residual against log delta.

    residuals holds the raw values; entries below NOISE_FLOOR are floored
    before fitting and counted in n_floored. When every point sits at the
    floor the fit is indeterminate and exponent/intercept are NaN.
    """

    exponent: float
    intercept: float
    sample_deltas: tuple[float, ...]
    residuals: tuple[float, ...]
    n_floored: int
    indeterminate: bool


def fit_power_laws(deltas, columns) -> list[ScalingFit]:
    """:func:`fit_power_law` of each residual column on one delta grid, checked as one array and
    fitted in one ``np.linalg.lstsq`` on the scaled design ``np.polyfit`` solves, as it solves it."""
    ds = tuple(map(float, deltas))
    # Rows of a 2-D array (as a sweep passes them) or of sequences; a float keeps its object.
    cols = [tuple(map(float, rs)) for rs in (columns.tolist() if isinstance(columns, np.ndarray) else columns)]
    if any(len(rs) != len(ds) for rs in cols):
        raise ValidationError("deltas and residuals must have equal length")
    if len(ds) < 3:
        raise ValidationError("scaling fits need at least 3 grid points")
    if any(d <= 0.0 for d in ds):
        raise ValidationError("delta grid entries must be positive")
    if max(ds) / min(ds) < 10.0 - 1e-9:
        raise ValidationError("delta grid must span at least one decade")
    res = np.array(cols).reshape(len(cols), len(ds))
    if (res < 0.0).any():
        raise ValidationError("residuals must be nonnegative")
    logs = np.log(np.maximum(res, NOISE_FLOOR))
    # Non-finite columns stay out of the solve and fit NaN; all-floored ones are indeterminate.
    finite = np.isfinite(logs).all(axis=1)
    design = np.vander(np.log(ds), 2)
    scale = np.sqrt((design * design).sum(axis=0))
    solved = np.linalg.lstsq(design / scale, np.where(finite, logs.T, 0.0), len(ds) * np.finfo(float).eps)[0]
    coefs = (solved.T / scale).tolist()
    n_floored = (res < NOISE_FLOOR).sum(axis=1).tolist()
    return [ScalingFit(*(c if ok and n < len(ds) else (math.nan, math.nan)), ds, rs, n, n == len(ds))
            for rs, c, ok, n in zip(cols, coefs, finite.tolist(), n_floored)]


def fit_power_law(deltas, residuals) -> ScalingFit:
    """Fit residual ~ C * delta^p on a grid; see ScalingFit for flooring rules."""
    return fit_power_laws(deltas, [residuals])[0]


def _mirrored(comps: np.ndarray, hypothesis: int) -> np.ndarray:
    """The components of hypothesis 0, or for hypothesis 1 their 1<->4, 2<->3 mirror."""
    if hypothesis not in (0, 1):
        raise ValidationError(f"hypothesis must be 0 or 1, got {hypothesis!r}")
    return comps[[3, 2, 1, 0, 4]] if hypothesis else comps


def _magnitude_gap(exact: np.ndarray, approx: np.ndarray) -> float:
    return float(np.max(np.abs(np.abs(exact) - np.abs(approx))))


class FinalStep(NamedTuple):
    """What the residuals read of one grid point; all but the first click are at step k."""

    params: ProtocolParams
    first_click: float  # 0.5 a^2 s^2, the click probability of step 1
    survival: float
    overlap: float
    survived: np.ndarray  # the state of hypothesis 0, :func:`protocol.survived_state`


# Residuals |exact - series| of one FinalStep (the one-step state and the
# baseline need only its params).

def _residual_click_prob(point: FinalStep) -> float:
    p = point.params
    return abs(point.first_click - 0.5 * p.a**2 * p.delta**2 * p.dt**2)


def _residual_one_step_state(point: FinalStep) -> float:
    # The evolved state's magnitudes: (a, 0, 0, 0, b delta) rotates inside
    # levels 1-2 by delta dt, and e0, e1 enter only phases.
    p = point.params
    x = p.delta * p.dt
    exact = np.array([p.a * abs(math.cos(x)), p.a * abs(math.sin(x)), 0.0, 0.0, p.b * p.delta])
    return _magnitude_gap(exact, one_step_state(p, 0))


def _residual_k_step_state(point: FinalStep) -> float:
    return _magnitude_gap(point.survived, k_step_state(point.params, 0))


def _residual_survival_step(point: FinalStep) -> float:
    return abs((1.0 - point.first_click) - one_step_survival(point.params))


def _residual_survival_k(point: FinalStep) -> float:
    return abs(point.survival - survival_k_paper(point.params))


def _residual_overlap_vs_series(point: FinalStep) -> float:
    return abs(point.overlap - abs(overlap_k_paper(point.params)))


def _residual_final_overlap(point: FinalStep) -> float:
    # Deviation from the claimed exact cancellation to zero.
    return point.overlap


def _residual_baseline(point: FinalStep) -> float:
    p = point.params
    return abs(baseline_paper_convention(p) - 0.25 * (p.b * p.delta) ** 2)


@dataclass(frozen=True)
class Expression:
    """One literal series expression with its doubt, if any, and the scaling
    quantities whose series side it is (name -> residual of a FinalStep).
    """

    name: str
    summary: str
    evaluate: Callable
    stated_error_order: int
    suspect: str | None = None
    residuals: dict[str, Callable[[FinalStep], float]] = field(default_factory=dict)

    @property
    def implemented_by(self) -> str:
        return f"{self.evaluate.__module__}.{self.evaluate.__name__}"


# The one table of series expressions; coverage tests enumerate it.
EXPRESSIONS: tuple[Expression, ...] = (
    Expression("baseline_paper_convention",
               "initial cost b^2 delta^2 / 4 from the closed Helstrom form at xi = 1/2",
               baseline_paper_convention, 4,
               residuals={"baseline": _residual_baseline}),
    Expression("one_step_state",
               "evolved candidate state after one dt, truncated at delta^2",
               one_step_state, 3,
               residuals={"one_step_state": _residual_one_step_state}),
    Expression("one_step_survival",
               "single-step null-outcome probability 1 - a^2 delta^2 dt^2 / 2",
               one_step_survival, 3,
               residuals={"click_prob": _residual_click_prob,
                          "survival_step": _residual_survival_step}),
    Expression("k_step_state",
               "null-branch state after k iterations, with compound renormalization prefactor",
               k_step_state, 3,
               residuals={"k_step_state": _residual_k_step_state}),
    Expression("survival_k_paper",
               "k-step cumulative survival 1 - a^2 k delta^2 dt^2 / 4",
               survival_k_paper, 3,
               suspect=("k-step coefficient 1/4 disagrees with compounding the per-step "
                        "decline a^2 delta^2 dt^2 / 2, which gives k/2"),
               residuals={"survival_k": _residual_survival_k}),
    Expression("overlap_k_paper",
               "k-step overlap (1 + a^2 k delta^2 dt^2 / 4)(b^2 delta^2 - 2 a^2 k^2 dt delta^2)",
               overlap_k_paper, 3,
               suspect=("second term carries a single power of dt where dimensional "
                        "consistency requires dt**2"),
               residuals={"overlap_vs_series": _residual_overlap_vs_series,
                          "final_overlap": _residual_final_overlap}),
    Expression("total_cost_paper_mode",
               "idealized total cost k a^2 dt^2 delta^2 / 4",
               protocol.total_cost_paper_mode, 3),
    Expression("original_cost",
               "single-shot cost a^2 k^2 dt^2 delta^2 under the cancellation condition",
               original_cost, 4),
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


def _residual(quantity: str, point: FinalStep) -> float:
    """|exact - series| of ``quantity`` at ``point``; a ValidationError where it overflows."""
    try:
        value = SCALING_QUANTITIES[quantity].residuals[quantity](point)
        if math.isfinite(value):
            return value
    except ArithmeticError:
        pass
    p = point.params
    raise ValidationError(f"{quantity} overflows at b={p.b!r}, delta={p.delta!r}, dt={p.dt!r}, k={shown(p.k)}")


def scaling_fits(quantities, deltas, templates, auto_dt: bool = False) -> list[ScalingFit]:
    """The fit of each quantity over the delta grid for each template, template-major.

    Each template moves across the grid with b, k and the prior held (a re-derived) and dt
    held or, with auto_dt, re-solved per point. One :func:`protocol.tree` call over the final
    step of all points gives their FinalStep records; one :func:`fit_power_laws` fits them."""
    for q in quantities:
        _tested_expression(q)  # rejects an unknown name before any evaluation
    points = [rescale_delta(t, d, auto_dt=auto_dt) for t in templates for d in deltas]
    a, bd, x = np.array([protocol.normalised(p) for p in points]).reshape(-1, 3).T
    _, survival, overlap, _ = protocol.tree(a, bd, x, np.array([float(p.k) for p in points]))
    records = [FinalStep(p, 0.5 * ai * ai * math.sin(xi) ** 2, si, oi,
                         protocol.survived_state(ai, bdi, xi, p.k, si))
               for p, ai, bdi, xi, si, oi in zip(points, *(v.tolist() for v in (a, bd, x, survival, overlap)))]
    n = len(deltas)
    return fit_power_laws(deltas, [[_residual(q, r) for r in records[t * n:(t + 1) * n]]
                                   for t in range(len(templates)) for q in quantities])


def fit_scaling(quantity: str, deltas, template: ProtocolParams, auto_dt: bool = False) -> ScalingFit:
    """Empirical truncation order of one quantity over a delta grid (see :func:`scaling_fits`)."""
    return scaling_fits([quantity], deltas, [template], auto_dt)[0]

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
residual is read off one protocol report (the first click probability is
its ``clicks[0]``, the k-step state its survived pair), so one evaluation
per grid point serves all quantities.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import protocol
from .helstrom import helstrom_cost
from .protocol import ProtocolParams, ProtocolReport, rescale_delta
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
    _check_hypothesis(hypothesis)
    a, b, d, dt = params.a, params.b, params.delta, params.dt
    lead = a * (1.0 - 0.5 * dt**2 * d**2)
    off = 1j * d * a * dt
    if hypothesis == 0:
        return np.array([lead, off, 0.0, 0.0, d * b], dtype=np.complex128)
    return np.array([0.0, 0.0, off, lead, d * b], dtype=np.complex128)


def k_step_state(params: ProtocolParams, hypothesis: int) -> np.ndarray:
    """Null-branch state after k evolve-and-ask iterations, truncated series form.

    Carries the compound renormalization prefactor
    (1 - a^2 delta^2 dt^2 / 2)^(-k/2). The fourth component is written with
    the sign it is written with; magnitude comparisons are sign-blind.
    """
    _check_hypothesis(hypothesis)
    a, b, d, dt, k = params.a, params.b, params.delta, params.dt, params.k
    pref = (1.0 - 0.5 * a**2 * d**2 * dt**2) ** (-k / 2.0)
    lead = a * (1.0 - 0.25 * k * (k + 1) * dt**2 * d**2)
    off = 0.5j * k * d * a * dt
    fourth = -0.25 * k * (k - 1) * d**2 * a * dt**2
    if hypothesis == 0:
        comps = [lead, off, -off, fourth, d * b]
    else:
        comps = [fourth, -off, off, lead, d * b]
    return pref * np.array(comps, dtype=np.complex128)


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


def fit_power_law(deltas, residuals) -> ScalingFit:
    """Fit residual ~ C * delta^p on a grid; see ScalingFit for flooring rules."""
    ds = tuple(float(d) for d in deltas)
    rs = tuple(float(r) for r in residuals)
    if len(ds) != len(rs):
        raise ValidationError("deltas and residuals must have equal length")
    if len(ds) < 3:
        raise ValidationError("scaling fits need at least 3 grid points")
    if max(ds) / min(ds) < 10.0 - 1e-9:
        raise ValidationError("delta grid must span at least one decade")
    if any(d <= 0.0 for d in ds):
        raise ValidationError("delta grid entries must be positive")
    if any(r < 0.0 for r in rs):
        raise ValidationError("residuals must be nonnegative")
    floored = [max(r, NOISE_FLOOR) for r in rs]
    n_floored = sum(1 for r in rs if r < NOISE_FLOOR)
    if n_floored == len(rs):
        return ScalingFit(math.nan, math.nan, ds, rs, n_floored, True)
    slope, intercept = np.polyfit(np.log(ds), np.log(floored), 1)
    return ScalingFit(float(slope), float(intercept), ds, rs, n_floored, False)


def _check_hypothesis(hypothesis: int) -> None:
    if hypothesis not in (0, 1):
        raise ValidationError(f"hypothesis must be 0 or 1, got {hypothesis!r}")


def _magnitude_gap(exact: np.ndarray, approx: np.ndarray) -> float:
    return float(np.max(np.abs(np.abs(exact) - np.abs(approx))))


# Residuals |exact - series| read off one report (the one-step state and the
# baseline need only its params).

def _residual_click_prob(report: ProtocolReport) -> float:
    params = report.params
    series_val = 0.5 * params.a**2 * params.delta**2 * params.dt**2
    return abs(report.clicks[0] - series_val)


def _residual_one_step_state(report: ProtocolReport) -> float:
    # The evolved state's magnitudes: (a, 0, 0, 0, b delta) rotates inside
    # levels 1-2 by delta dt, and e0, e1 enter only phases.
    p = report.params
    x = p.delta * p.dt
    exact = np.array([p.a * abs(math.cos(x)), p.a * abs(math.sin(x)), 0.0, 0.0, p.b * p.delta])
    return _magnitude_gap(exact, one_step_state(p, 0))


def _residual_k_step_state(report: ProtocolReport) -> float:
    exact = report.survived_pair[0].amplitudes
    return _magnitude_gap(exact, k_step_state(report.params, 0))


def _residual_survival_step(report: ProtocolReport) -> float:
    return abs((1.0 - report.clicks[0]) - one_step_survival(report.params))


def _residual_survival_k(report: ProtocolReport) -> float:
    return abs(report.survival[-1] - survival_k_paper(report.params))


def _residual_overlap_vs_series(report: ProtocolReport) -> float:
    return abs(report.final_overlap - abs(overlap_k_paper(report.params)))


def _residual_final_overlap(report: ProtocolReport) -> float:
    # Deviation from the claimed exact cancellation to zero.
    return report.final_overlap


def _residual_baseline(report: ProtocolReport) -> float:
    params = report.params
    quadratic = 0.25 * (params.b * params.delta) ** 2
    return abs(baseline_paper_convention(params) - quadratic)


@dataclass(frozen=True)
class Expression:
    """One literal series expression with its doubt, if any, and the scaling
    quantities whose series side it is (name -> residual read off a report).
    """

    name: str
    summary: str
    evaluate: Callable
    stated_error_order: int
    suspect: str | None = None
    residuals: dict[str, Callable[[ProtocolReport], float]] = field(default_factory=dict)

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
            f"unknown scaling quantity {quantity!r}; options: {sorted(SCALING_QUANTITIES)}")
    return SCALING_QUANTITIES[quantity]


def quantity_flag(quantity: str) -> str:
    """The name of the expression a quantity tests when that one is flagged, else ''."""
    entry = _tested_expression(quantity)
    return entry.name if entry.suspect else ""


def report_residual(quantity: str, report: ProtocolReport) -> float:
    """|exact - series| for one named quantity, read off ``report``."""
    return _tested_expression(quantity).residuals[quantity](report)


def fit_scaling(quantity: str, deltas, template: ProtocolParams,
                auto_dt: bool = False) -> ScalingFit:
    """Empirical truncation order of one quantity over a delta grid.

    The template is moved across the grid with b, k, and the prior held
    fixed (a is re-derived from normalization); auto_dt re-solves the
    cancellation spacing at every grid point, otherwise dt is held fixed.
    """
    _tested_expression(quantity)  # rejects an unknown name before any evaluation
    residuals = [report_residual(quantity, protocol.run(rescale_delta(template, d, auto_dt=auto_dt)))
                 for d in deltas]
    return fit_power_law(deltas, residuals)

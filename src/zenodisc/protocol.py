"""The evolve-and-ask experiment engine with full Bayesian branch accounting.

One experiment: prepare one of two candidate states with prior xi, then k
times (evolve for dt, measure along the fixed transverse direction and keep
only the null outcome), and finally discriminate whatever survived with the
optimal terminal measurement. Because every measurement is binary and click
branches terminate, the outcome tree has exactly k + 1 leaves: a click at
step i (i = 1..k) or survival through all k steps. All branch probabilities
are computed exactly; nothing is sampled.

The tree has a closed form. The permutation P that swaps levels 1<->4 and
2<->3 commutes with the Hamiltonian, fixes the probe (e2 + e3)/sqrt(2) and
maps one candidate state onto the other, so a click is equally likely under
either hypothesis and every click leaf keeps the prior as its posterior.
The P-odd part of a candidate state rotates inside the span of e1 - e4 and
e2 - e3 and is never measured. In the P-even part each step multiplies the
e1 + e4 amplitude by c = cos(delta dt) and removes the probe component.
With s = sin(delta dt), the click at step j has probability
(a^2 / 2) s^2 c^(2 (j - 1)) under both hypotheses, the click mass of k steps
is M_k = (a^2 / 2)(1 - c^(2 k)), and the survived pair has the overlap
|b^2 delta^2 - M_k| / (1 - M_k). The level energies e0 and e1 enter only
phases, so no reported number depends on them.

Two cost ledgers price the same tree. ``Mode.EXACT`` charges each leaf its
true Bayes cost: min(xi, 1 - xi) at a click, whose posterior is the prior,
and at survival the Helstrom cost H of the conditioned pair, so the total is
M_k min(xi, 1 - xi) + (1 - M_k) H(xi, O_k^2) with O_k the survived overlap.
``Mode.PAPER`` is the idealized ledger in which a click costs 1/2 and
survival 0, so the total is M_k / 2; ``total_cost_paper_mode`` is its
second-order value. A report stores only the tree, and its costs are views
under ``params.mode``. The gap between the two ledgers on the same exact
branch probabilities is the whole point of the laboratory.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass, replace
from typing import Any, ClassVar, NamedTuple

import numpy as np

from .helstrom import guess_only_cost, helstrom_cost
from .qcore import PureState, ValidationError

# Candidate-state normalization a^2 + (b delta)^2 = 1 is enforced to this
# tolerance; construction helpers hit it to machine precision anyway.
NORM_SLACK = 1e-9


class Mode(enum.Enum):
    """Leaf cost ledger; see the module docstring."""

    EXACT = "exact"
    PAPER = "paper"


@dataclass(frozen=True)
class ProtocolParams:
    """One complete experiment definition.

    a and b parameterize the candidate pair (a, 0, 0, 0, b*delta) and
    (0, 0, 0, a, b*delta); they must satisfy a^2 + (b*delta)^2 = 1. Use
    :meth:`from_b` or :meth:`from_a` to get the normalization right
    automatically, with dt=None solving the overlap-cancellation condition
    2*k*a*dt = b.

    The level energies e0 and e1 are fixed class constants, not fields. The
    closed-form tree reads neither (see the module docstring); they stay so
    that a step-by-step walk under the full Hamiltonian, such as the dense
    oracle that checks this engine, runs the very experiment these params
    define.
    """

    e0: ClassVar[float] = 1.0
    e1: ClassVar[float] = 2.0

    a: float
    b: float
    delta: float
    dt: float
    k: int
    prior: float = 0.5
    mode: Mode = Mode.EXACT

    def __post_init__(self):
        _enforce(_PARAM_CHECKS, self)
        if not isinstance(self.mode, Mode):
            raise ValidationError(f"mode must be a Mode, got {self.mode!r}")

    @classmethod
    def from_b(cls, b: float, delta: float, k: int, dt: float | None = None, **kwargs) -> "ProtocolParams":
        """Build params from (b, delta), deriving a = sqrt(1 - (b*delta)^2).

        dt=None solves 2*k*a*dt = b via :func:`solve_orthogonality`.
        """
        a, b = amplitudes(delta, b=b)
        if dt is None:
            dt = solve_orthogonality(a, b, k)
        return cls(a=a, b=b, delta=delta, dt=float(dt), k=k, **kwargs)

    @classmethod
    def from_a(cls, a: float, delta: float, k: int, dt: float | None = None, **kwargs) -> "ProtocolParams":
        """Build params from (a, delta), deriving b = sqrt(1 - a^2)/delta."""
        a, b = amplitudes(delta, a=a)
        if dt is None:
            dt = solve_orthogonality(a, b, k)
        return cls(a=a, b=b, delta=delta, dt=float(dt), k=k, **kwargs)


class Points(NamedTuple):
    """The fields of :class:`ProtocolParams` that its checks and the closed forms read,
    as floats of one point or as equal-length float arrays of many (k as floats, inf
    past the float range). A ProtocolParams reads as one point too."""

    a: Any = None
    b: Any = None
    delta: Any = None
    dt: Any = None
    k: Any = None
    prior: Any = None


_MAX = sys.float_info.max


def _finite(v):
    """abs(v) <= the largest float: false for inf, NaN and anything but a real number,
    entry by entry over an array."""
    return isinstance(v, (int, float, np.ndarray)) and abs(v) <= _MAX


def _k_in_range(p):
    k = p.k if isinstance(p.k, (int, np.ndarray)) else 0  # a k of any other type fails
    return (k >= 1) & (k <= _MAX)


def _k_message(p) -> str:
    got = shown(p.k if isinstance(p.k, int) else repr(p.k))  # a str k keeps its quotes
    return f"k must be an integer in [1, {_MAX:.4g}], got {got}"


def _squares_finite(p):
    x = p.delta * p.dt  # the squares are not negative
    return (p.dt * p.dt <= _MAX) & (p.delta * p.delta <= _MAX) & (p.k * x * x <= _MAX)


def _norm_residual(p):
    bd = p.b * p.delta
    return p.a * p.a + bd * bd - 1.0


def _not_finite(name: str):
    return lambda p: f"{name} must be a finite real number, got {getattr(p, name)!r}"


# Each check of a point once, as (holds, message) in the order they are made. "holds" takes
# a point (a ProtocolParams or Points) of floats or of arrays alike, with comparisons only,
# so one table checks a single point and a whole grid; "message" takes one point of floats.
_PARAM_CHECKS = (
    (lambda p: _finite(p.a), _not_finite("a")),
    (lambda p: _finite(p.b), _not_finite("b")),
    (lambda p: _finite(p.delta), _not_finite("delta")),
    (lambda p: _finite(p.dt), _not_finite("dt")),
    (lambda p: _finite(p.prior), _not_finite("prior")),
    (_k_in_range, _k_message),
    (lambda p: p.dt > 0.0, lambda p: f"dt must be positive, got {p.dt!r}"),
    (lambda p: p.delta >= 0.0, lambda p: f"delta must be nonnegative, got {p.delta!r}"),
    (lambda p: (p.prior >= 0.0) & (p.prior <= 1.0), lambda p: f"prior must lie in [0, 1], got {p.prior!r}"),
    (_squares_finite, lambda p: f"dt^2, delta^2 and k (delta dt)^2 must be finite, got dt={p.dt!r}, "
                                f"delta={p.delta!r}, k={shown(p.k)}"),
    (lambda p: abs(_norm_residual(p)) <= NORM_SLACK,
     lambda p: f"a^2 + (b*delta)^2 = {1.0 + _norm_residual(p)!r} violates normalization beyond {NORM_SLACK}"),
)
# The checks of :func:`amplitudes` from b and from a, then of :func:`solve_orthogonality`.
_FROM_B = (
    (lambda p: abs(p.b * p.delta) <= 1.0,
     lambda p: f"|b*delta| = {abs(p.b * p.delta)!r} exceeds 1; no valid amplitude a"),
)
_FROM_A = (
    (lambda p: (p.a >= 0.0) & (p.a <= 1.0), lambda p: f"a must lie in [0, 1], got {p.a!r}"),
    (lambda p: (p.delta > 0.0) | (p.a == 1.0), lambda p: "delta = 0 requires a = 1"),
)
_SOLVE = (
    (_k_in_range, _k_message),
    (lambda p: p.a > 0.0, lambda p: f"a must be positive, got {p.a!r}"),
    (lambda p: p.b > 0.0, lambda p: f"b must be positive, got {p.b!r}"),
)


def _enforce(checks, point) -> None:
    """Raise the message of the first of ``checks`` that one point fails."""
    for holds, message in checks:
        if not holds(point):
            raise ValidationError(message(point))


def _rest(v):
    """sqrt(max(1 - v^2, 0)) of a float, or entry by entry of an array."""
    if isinstance(v, np.ndarray):
        return np.sqrt(np.maximum(1.0 - v * v, 0.0))
    return math.sqrt(max(1.0 - v * v, 0.0))


def amplitudes(delta: float, a: float | None = None, b: float | None = None
               ) -> tuple[float, float]:
    """The pair (a, b) with a^2 + (b*delta)^2 = 1, derived from b when given, else from a."""
    if b is not None:
        _enforce(_FROM_B, Points(None, b, delta))
        return _rest(b * delta), b
    _enforce(_FROM_A, Points(a, None, delta))
    return a, _rest(a) / delta if delta > 0.0 else 0.0


@np.errstate(all="ignore")  # failing entries may overflow or divide by zero
def derive_points(amplitude: str, ab, delta, dt, k, prior) -> tuple[Points, list[str]]:
    """The points that ``from_a`` (amplitude "a") or ``from_b`` would build from equal-length
    sequences of values, as columns, and for each entry why it fails, "" where it is valid.

    Every entry is checked at once with the check tables of :func:`amplitudes`,
    :func:`solve_orthogonality` (where every dt is None) and :class:`ProtocolParams`; a
    message is built only for a failing entry, from its first failing check, with the
    text the per-point build raises. Valid entries equal that build bit for bit.
    """
    ab_col, d = np.array(ab, float), np.array(delta, float)
    k_col = np.array([float(v) if v <= _MAX else math.inf for v in k])
    if amplitude == "a":
        a, b, checks = ab_col, np.where(d > 0.0, _rest(ab_col) / d, 0.0), _FROM_A
    else:
        a, b, checks = _rest(ab_col * d), ab_col, _FROM_B
    auto = dt[0] is None
    if auto:
        dt_col, checks = b / (2.0 * k_col * a), checks + _SOLVE
    else:
        dt_col = np.array(dt, float)
    points = Points(a, b, d, dt_col, k_col, np.array(prior, float))
    checks += _PARAM_CHECKS
    held = np.array([holds(points) for holds, _ in checks])
    errors = [""] * len(ab)
    valid = held.all(axis=0)
    failing = [] if valid.all() else np.flatnonzero(~valid).tolist()
    for i in failing:
        a_i, b_i = (ab[i], float(b[i])) if amplitude == "a" else (float(a[i]), ab[i])
        entry = Points(a_i, b_i, delta[i], float(dt_col[i]) if auto else dt[i], k[i], prior[i])
        errors[i] = checks[int(np.argmin(held[:, i]))][1](entry)
    return points, errors


def rescale_delta(params: ProtocolParams, delta: float, auto_dt: bool = False) -> ProtocolParams:
    """Move ``params`` to a new delta holding b fixed and re-deriving a.

    With auto_dt the spacing is re-solved from 2*k*a*dt = b; otherwise the
    original dt is kept. Used by the delta-scaling studies.
    """
    return ProtocolParams.from_b(
        params.b, delta, params.k,
        dt=None if auto_dt else params.dt, prior=params.prior, mode=params.mode,
    )


@dataclass(frozen=True, slots=True)
class LeafRecord:
    """One terminal branch of the outcome tree.

    kind is "click" (with step in 1..k) or "survived" (step is None).
    p_given_h0 / p_given_h1 are the leaf probabilities conditioned on each
    hypothesis; marginal mixes them with the prior; posterior is the
    Bayes-updated weight of hypothesis 0 at this leaf and leaf_cost is the
    expected 0-1 cost charged there under the active ledger. Click leaves
    hold no states: a click leaves either hypothesis on the probe direction
    up to a phase.
    """

    kind: str
    step: int | None
    p_given_h0: float
    p_given_h1: float
    marginal: float
    posterior: float
    leaf_cost: float


@dataclass(frozen=True)
class ProtocolReport:
    """The outcome tree of one experiment at its final step k; the rest are views.

    It stores :func:`final_step`: the click mass M_k, the survival 1 - M_k of
    either hypothesis, the survived overlap O_k and 1 - O_k in closed form,
    which keeps its digits as the pair nears parallel; and both baselines.
    total_cost, the verdicts (total_cost minus each baseline; positive: worse
    than that baseline) and the leaves are computed under params.mode when
    read, and so is every per-step value, which nothing keeps: clicks[j - 1]
    is the click at step j under either hypothesis, overlap_trajectory[i] is
    |<s0|s1>| of the survival states after i steps (entry 0 is b^2 delta^2),
    survival[i] the cumulative survival (survival_trajectory pairs it up),
    and survived_pair the survived leaf's states without the e0, e1 phases.
    """

    params: ProtocolParams
    click_mass: float
    final_survival: float
    final_overlap: float
    final_gap: float
    baseline_exact: float
    baseline_paper: float

    def _steps(self) -> tuple[np.ndarray, ...]:
        """:func:`_columns` at the steps j = 0..k, computed on each read."""
        (a, bd, x), k = normalised(self.params), self.params.k
        too_many = f"k = {k}: its {k + 1} per-step values cannot be allocated"
        if (k + 1) * 8 > sys.maxsize:  # past numpy's index range arange may come back empty
            raise ValidationError(too_many)
        try:
            return _columns(a, bd, x, np.arange(k + 1))
        except MemoryError:
            raise ValidationError(too_many) from None

    @property
    def clicks(self) -> tuple[float, ...]:
        a, _, x = normalised(self.params)
        return tuple((0.5 * a * a * _decay(x)[0] * np.exp(self._steps()[0][:-1])).tolist())

    @property
    def survival(self) -> tuple[float, ...]:
        return tuple(self._steps()[2].tolist())

    @property
    def overlap_trajectory(self) -> tuple[float, ...]:
        return tuple(self._steps()[3].tolist())

    @property
    def survival_trajectory(self) -> tuple[tuple[float, float], ...]:
        return tuple((s, s) for s in self.survival)

    @property
    def survived_pair(self) -> tuple[PureState, PureState]:
        s0 = survived_state(*normalised(self.params), self.params.k, self.final_survival)
        return PureState(s0), PureState(s0[[3, 2, 1, 0, 4]])

    @property
    def total_cost(self) -> float:
        return ledger(self.params.mode, self.params.prior, self.click_mass,
                      self.final_survival, self.final_overlap, self.final_gap)[2]

    @property
    def verdict_vs_exact(self) -> float:
        return self.total_cost - self.baseline_exact

    @property
    def verdict_vs_paper(self) -> float:
        return self.total_cost - self.baseline_paper

    @property
    def paper_new_cost(self) -> float:
        return total_cost_paper_mode(self.params)

    @property
    def leaves(self) -> tuple[LeafRecord, ...]:
        """The k click leaves in step order, then the survived leaf; every
        posterior is the prior."""
        prior, survived = self.params.prior, self.final_survival
        click_cost, survived_cost, _ = ledger(self.params.mode, prior, self.click_mass, survived,
                                              self.final_overlap, self.final_gap)
        return (*(LeafRecord("click", step, p, p, p, prior, click_cost)
                  for step, p in enumerate(self.clicks, start=1)),
                LeafRecord("survived", None, survived, survived, survived, prior, survived_cost))


def shown(value) -> str:
    """``value`` as an error message echoes it: a str as is, anything else by its repr,
    and past 40 characters only the first 20 and the length."""
    try:
        text = value if isinstance(value, str) else repr(value)
    except ValueError:  # an int past Python's limit on the digits of its text
        return f"<an int of {value.bit_length()} bits>"
    return text if len(text) <= 40 else f"{text[:20]}... ({len(text)} characters)"


def solve_orthogonality(a: float, b: float, k: int) -> float:
    """Spacing dt = b / (2 k a) solving the cancellation condition 2*k*a*dt = b."""
    _enforce(_SOLVE, Points(a, b, None, None, k))
    return b / (2.0 * k * a)


def total_cost_paper_mode(params: ProtocolParams) -> float:
    """Closed-form idealized total cost k a^2 dt^2 delta^2 / 4, of one point or of
    :class:`Points` columns entry by entry (each square a product).

    This is the second-order value of the PAPER ledger: k click chances of
    probability a^2 dt^2 delta^2 / 2 each costing 1/2 plus a free survived
    branch. It is independent of the exact simulation by construction.
    """
    p = params
    return p.k * (p.a * p.a) * (p.dt * p.dt) * (p.delta * p.delta) / 4.0


def normalised(params: ProtocolParams) -> tuple[float, float, float]:
    """a and b delta of ``params`` rescaled to unit norm, which the closed forms
    need to rounding (params admit NORM_SLACK), and x = delta dt; of one point or
    of :class:`Points` columns entry by entry, with ``math.hypot`` per entry."""
    bd = params.b * params.delta
    norm = _each(math.hypot, params.a, bd)
    return params.a / norm, bd / norm, params.delta * params.dt


def _decay(x: float) -> tuple[float, float]:
    """s^2 and log c^2; log1p(-s^2) is -inf once s^2 rounds to 1, though c^2 is not 0."""
    s2 = math.sin(x) ** 2
    return s2, math.log1p(-s2) if s2 < 1.0 else 2.0 * math.log(abs(math.cos(x)))


def _each(fn, *args):
    """The ``math`` function ``fn`` of floats, or entry by entry over broadcast arrays as a
    float array, where numpy's counterpart would round differently."""
    if np.ndarray in map(type, args):
        return np.frompyfunc(fn, len(args), 1)(*args).astype(float)
    return fn(*args)


def _columns(a, bd, x, steps):
    """log c^(2 j), M_j, 1 - M_j and O_j of :func:`tree`, without the gap."""
    log_decay = steps * _each(lambda v: _decay(v)[1], x)
    expm1 = np.expm1(log_decay)  # of a float, a numpy scalar with the bits of an array entry
    mass = -(0.5 * a * a) * (expm1 if isinstance(expm1, np.ndarray) else float(expm1))
    survival = 1.0 - mass
    return log_decay, mass, survival, abs(bd * bd - mass) / survival


def tree(a, bd, x, steps):
    """M_j, 1 - M_j, O_j and 1 - O_j at j = ``steps`` of one point of floats, as floats, or
    entry by entry over broadcast arrays of :func:`normalised` values (see :func:`run`);
    log c^2 takes ``math`` per entry of x, expm1 and exp take numpy's on both paths."""
    log_decay, mass, survival, overlap = _columns(a, bd, x, steps)
    a2, bd2 = a * a, bd * bd
    # 1 - O_j = (1 - M_j - |b^2 delta^2 - M_j|) / (1 - M_j) cancels near parallel;
    # a^2 + b^2 delta^2 = 1 turns the numerator into a sum of positive terms.
    if isinstance(mass, np.ndarray):
        gap = np.where(mass >= bd2, (2.0 * bd2 + a2 * np.exp(log_decay)) / survival, a2 / survival)
    else:
        gap = (2.0 * bd2 + a2 * float(np.exp(log_decay))) / survival if mass >= bd2 else a2 / survival
    return mass, survival, overlap, gap


def final_step(params: ProtocolParams) -> tuple[float, float, float, float]:
    """:func:`tree` of ``params`` at its final step k, as a sweep evaluates it."""
    return tree(*normalised(params), float(params.k))


def baselines(prior, a, bd):
    """(baseline_exact, baseline_paper): T = b^4 delta^4 and b^2 delta^2 of :func:`normalised`."""
    bd2 = bd * bd
    return helstrom_cost(prior, bd2 * bd2, a * a * (1.0 + bd2)), helstrom_cost(prior, bd2, a * a)


def ledger(mode: Mode, prior, mass, survival, overlap, gap):
    """Click-leaf cost, survived-leaf cost and total under ``mode`` of floats or arrays of :func:`tree`."""
    click, survived = (0.5, 0.0) if mode is Mode.PAPER else (
        guess_only_cost(prior), helstrom_cost(prior, overlap * overlap, gap * (2.0 - gap)))
    return click, survived, mass * click + survival * survived


def final_total(mode: Mode, prior: float, a: float, bd: float, x: float, k: int) -> float:
    """The total under ``mode`` at the final step k of :func:`normalised` values a, b delta
    and x = delta dt: an optimize trial's price, with no ProtocolParams."""
    return ledger(mode, prior, *tree(a, bd, x, float(k)))[2]


def survived_state(a: float, bd: float, x: float, k: int, survival: float) -> np.ndarray:
    """The survived state of hypothesis 0 from :func:`normalised` values, k and 1 - M_k:
    ((a/2)(c^k + cos k delta dt), -i (a/2) sin k delta dt, i (a/2) sin k delta dt,
    (a/2)(c^k - cos k delta dt), b delta) / sqrt(1 - M_k); hypothesis 1 is its mirror."""
    # c^k with its sign: the even amplitude flips at every step when c < 0.
    ck = math.exp(0.5 * (k * _decay(x)[1])) * math.copysign(1.0, math.cos(x)) ** k
    cos_kx, sin_kx = math.cos(k * x), math.sin(k * x)
    return np.array([0.5 * a * (ck + cos_kx), -0.5j * a * sin_kx, 0.5j * a * sin_kx,
                     0.5 * a * (ck - cos_kx), bd]) / math.sqrt(survival)


def run(params: ProtocolParams) -> ProtocolReport:
    """Evaluate the outcome tree in closed form at its final step k, as every pipeline does.

    The report holds :func:`final_step` and both baselines, and computes its
    per-step values when read. Both take the closed forms of the module
    docstring with c^(2 j) = exp(j log1p(-s^2)) and the click mass
    M_j = -(a^2 / 2) expm1(j log1p(-s^2)); expm1 keeps M_j accurate where the
    clicks are far below the rounding of 1, as in the Zeno regime of many
    close probes. The survived pair is :func:`survived_state` and its mirror.
    """
    a, bd, _ = normalised(params)
    return ProtocolReport(params, *final_step(params), *baselines(params.prior, a, bd))


def price(report: ProtocolReport, mode: Mode) -> ProtocolReport:
    """The outcome tree behind ``report`` charged under the ledger ``mode``.

    Only the ledger's views depend on the mode, so this equals :func:`run`
    with ``mode`` without evaluating the tree again.
    """
    return replace(report, params=replace(report.params, mode=mode))

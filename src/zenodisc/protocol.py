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
second-order value. A report stores only the tree; its costs are views
under ``params.mode`` through :func:`costs`, every pipeline's one pricing
function, whose exact-ledger verdict M_k g(M_k) does not cancel as M_k -> 0.
The gap between the two ledgers on the same exact branch probabilities is
the whole point of the laboratory.
"""

from __future__ import annotations

import enum
import math
import sys
from collections import namedtuple
from functools import cached_property, partial
from itertools import chain
from operator import itemgetter, mul

from .helstrom import ValidationError, _math, _numpy, guess_only_cost, helstrom_cost

# Candidate-state normalization a^2 + (b delta)^2 = 1 is enforced to this
# tolerance; construction helpers hit it to machine precision anyway.
NORM_SLACK = 1e-9


class Mode(enum.Enum):
    """Leaf cost ledger; see the module docstring."""

    EXACT = "exact"
    PAPER = "paper"


class ProtocolParams(namedtuple("ProtocolParams", "a b delta dt k prior mode")):
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

    __slots__ = ()
    e0 = 1.0
    e1 = 2.0

    def __new__(cls, a, b, delta, dt, k, prior=0.5, mode=Mode.EXACT):
        params = tuple.__new__(cls, (a, b, delta, dt, k, prior, mode))
        _enforce(_PARAM_CHECKS, params)
        if not isinstance(mode, Mode):
            raise ValidationError(f"mode must be a Mode, got {mode!r}")
        return params

    @classmethod
    def _make(cls, iterable):
        """Build through the checks of ``__new__``, as ``_replace`` does: a namedtuple's own
        ``_make`` calls ``tuple.__new__``, which skips them."""
        return cls(*iterable)

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


Points = namedtuple("Points", "a b delta dt k prior", defaults=(None,) * 6)
Points.__doc__ = """The fields of :class:`ProtocolParams` that its checks and the closed forms read,
as floats of one point or as equal-length float arrays of many (k as floats, inf
past the float range). A ProtocolParams reads as one point too."""


_MAX = sys.float_info.max
# The most steps whose per-step values a report lists: 100 times the largest k that a test, corpus
# entry or workload lists. A listing is made step by step, so this bounds not its memory but the
# tuple views (k + 1 floats each) and the text of `zenodisc run` (94.6 MB at 10^6).
_MAX_STEPS = 10**6


def _finite(v):
    """abs(v) <= the largest float: false for inf, NaN and anything but a real number,
    entry by entry over an array."""
    return (isinstance(v, (int, float)) or _numpy(v) is not None) and abs(v) <= _MAX


def _k_in_range(p):
    k = p.k if isinstance(p.k, int) or _numpy(p.k) else 0  # a k of any other type fails
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
    m = _math(v)
    return m.sqrt(m.maximum(1.0 - v * v, 0.0))


def amplitudes(delta: float, a: float | None = None, b: float | None = None
               ) -> tuple[float, float]:
    """The pair (a, b) with a^2 + (b*delta)^2 = 1, derived from b when given, else from a."""
    if b is not None:
        _enforce(_FROM_B, Points(None, b, delta))
        return _rest(b * delta), b
    _enforce(_FROM_A, Points(a, None, delta))
    return a, _rest(a) / delta if delta > 0.0 else 0.0


def derive_points(amplitude: str, ab, delta, dt, k, prior) -> tuple[Points, list[str]]:
    """The points that ``from_a`` (amplitude "a") or ``from_b`` would build from equal-length
    sequences of values, as columns, and for each entry why it fails, "" where it is valid.

    Every entry is checked at once with the check tables of :func:`amplitudes`,
    :func:`solve_orthogonality` (where every dt is None) and :class:`ProtocolParams`; a
    message is built only for a failing entry, from its first failing check, with the
    text the per-point build raises. Valid entries equal that build bit for bit. Empty
    sequences give empty columns and no message.
    """
    import numpy as np
    ab_col, d = np.array(ab, float), np.array(delta, float)
    k_col = np.array([float(v) if v <= _MAX else math.inf for v in k])
    auto = len(dt) > 0 and dt[0] is None
    with np.errstate(all="ignore"):  # failing entries may overflow or divide by zero
        if amplitude == "a":
            a, b, checks = ab_col, np.where(d > 0.0, _rest(ab_col) / d, 0.0), _FROM_A
        else:
            a, b, checks = _rest(ab_col * d), ab_col, _FROM_B
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


LeafRecord = namedtuple("LeafRecord", "kind step p_given_h0 p_given_h1 marginal posterior leaf_cost")
LeafRecord.__doc__ = """One terminal branch of the outcome tree.

kind is "click" (with step in 1..k) or "survived" (step is None).
p_given_h0 / p_given_h1 are the leaf probabilities conditioned on each
hypothesis; marginal mixes them with the prior; posterior is the
Bayes-updated weight of hypothesis 0 at this leaf and leaf_cost is the
expected 0-1 cost charged there under the active ledger. Click leaves
hold no states: a click leaves either hypothesis on the probe direction
up to a phase.
"""


class ProtocolReport:
    """The outcome tree of one experiment at its final step k; the rest are views.

    It stores :func:`final_step`: the click mass M_k, the survival 1 - M_k of either hypothesis,
    the survived overlap O_k and the gap 1 - O_k^2 in closed form, which keeps its digits as the
    pair nears parallel. total_cost, both baselines and the verdicts (total_cost minus each
    baseline, but M_k g(M_k) over baseline_exact in the exact ledger) are :func:`costs` under
    params.mode, a sweep row's cells bit for bit, priced in one call on the first read; another
    ledger's are those of :func:`run` with that mode. first_click, the click (a^2 / 2) s^2 of step 1,
    and survived, hypothesis 0's survived state (:func:`survived_state`; its mirror is hypothesis
    1's), are computed together on the first read. The leaves and per-step values are made step by
    step in floats on each read and never kept: overlap_trajectory[i] is |<s0|s1>| of the survival
    states after i steps (entry 0 is b^2 delta^2), survival[i] the cumulative survival."""

    def __init__(self, params, click_mass, final_survival, final_overlap, final_gap):
        self.params = params
        self.click_mass = click_mass
        self.final_survival = final_survival
        self.final_overlap = final_overlap
        self.final_gap = final_gap

    def _steps(self):
        """The clicks (a^2 s^2 / 2) c^(2 (j - 1)) at j = 1..k and :func:`_closed_forms` at j = 0..k,
        made step by step as read, with log c^2 taken once; k is checked against _MAX_STEPS first."""
        k = self.params.k
        if k > _MAX_STEPS:
            raise ValidationError(f"k = {k}: per-step values are listed for k up to {_MAX_STEPS}")
        a, bd, x = normalised(self.params)
        s2, log_decay = _decay(x)
        half_a2 = 0.5 * a * a
        step = partial(_closed_forms, math.expm1, math.exp, half_a2, bd * bd, log_decay)
        return map(partial(mul, half_a2 * s2), map(itemgetter(0), map(step, range(k)))), map(step, range(k + 1))

    survival = property(lambda self: tuple(map(itemgetter(2), self._steps()[1])))
    overlap_trajectory = property(lambda self: tuple(map(itemgetter(3), self._steps()[1])))
    survival_trajectory = property(lambda self: tuple((s, s) for s in self.survival))
    leaves = property(lambda self: tuple(self.iter_leaves()))

    @cached_property
    def _survivor(self) -> tuple[float, tuple[complex, ...]]:
        a, bd, x = normalised(self.params)
        return 0.5 * a * a * math.sin(x) ** 2, survived_state(a, bd, x, self.params.k, self.final_survival)

    first_click = property(lambda self: self._survivor[0])
    survived = property(lambda self: self._survivor[1])

    @cached_property
    def _costs(self) -> tuple[float, float, float, float, float]:
        p = self.params
        return costs((p.mode,), p.prior, *normalised(p)[:2], self.click_mass, self.final_survival,
                     self.final_overlap, self.final_gap)[0]

    total_cost = property(lambda self: self._costs[0])
    baseline_exact = property(lambda self: self._costs[1])
    baseline_paper = property(lambda self: self._costs[2])
    verdict_vs_exact = property(lambda self: self._costs[3])
    verdict_vs_paper = property(lambda self: self._costs[4])
    paper_new_cost = property(lambda self: total_cost_paper_mode(self.params))

    def iter_leaves(self):
        """The k click leaves in step order, then the survived leaf, made one at a time, k checked
        against the step cap on the call; every posterior is the prior."""
        prior, survived = self.params.prior, self.final_survival
        click_cost, survived_cost, _ = ledger(self.params.mode, prior, self.click_mass, survived,
                                              self.final_overlap, self.final_gap)
        return chain((LeafRecord("click", step, p, p, p, prior, click_cost)
                      for step, p in enumerate(self._steps()[0], start=1)),
                     (LeafRecord("survived", None, survived, survived, survived, prior, survived_cost),))


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
    """Closed-form idealized total cost k (a delta dt)^2 / 4, of one point or of
    :class:`Points` columns entry by entry (the square a product).

    This is the second-order value of the PAPER ledger: k click chances of
    probability a^2 dt^2 delta^2 / 2 each costing 1/2 plus a free survived
    branch. It is independent of the exact simulation by construction. It is
    finite at every valid point: the checks bound k (delta dt)^2, and a <= 1.
    """
    x = params.a * params.delta * params.dt
    return params.k * (x * x) / 4.0


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
    float array: numpy's counterpart of a ``math`` function may round differently, so an
    entry is the float call on it bit for bit, and floats never import numpy."""
    np = _numpy(*args)
    if np:
        columns = np.broadcast_arrays(*args)
        entries = map(fn, *(column.ravel().tolist() for column in columns))
        return np.fromiter(entries, float, columns[0].size).reshape(columns[0].shape)
    return fn(*args)


def _closed_forms(expm1, exp, half_a2, beta, log_decay, steps):
    """c^(2 j), M_j, 1 - M_j and O_j at j = ``steps`` from a^2 / 2, b^2 delta^2 and log c^2, without
    the gap: the one copy of the closed forms, which :func:`tree` evaluates with ``expm1`` and
    ``exp`` through :func:`_each` and a report's per-step views with ``math``'s, step by step."""
    log_decay = steps * log_decay
    mass = -half_a2 * expm1(log_decay)
    survival = 1.0 - mass
    return exp(log_decay), mass, survival, abs(beta - mass) / survival


def tree(a, bd, x, steps):
    """M_j, 1 - M_j, O_j and the gap 1 - O_j^2, the survived pair's Helstrom complement, at
    j = ``steps`` of one point of floats, as floats, or entry by entry over broadcast arrays of
    :func:`normalised` values (see :func:`run`). log c^2, expm1 and exp are ``math``'s, per entry
    over arrays (:func:`_each`), so an entry is the float call on it bit for bit, and floats import
    no numpy. The gap a^2 (2 b^2 delta^2 + a^2 c^(2 j)) / (1 - M_j)^2 adds nonnegative terms, where
    a^2 (1 + b^2 delta^2 - 2 M_j) / (1 - M_j)^2 cancels as b -> 0."""
    if _numpy(x, steps):  # the arguments of the math functions
        expm1, exp, log_decay = partial(_each, math.expm1), partial(_each, math.exp), _each(lambda v: _decay(v)[1], x)
    else:
        expm1, exp, log_decay = math.expm1, math.exp, _decay(x)[1]
    decay, mass, survival, overlap = _closed_forms(expm1, exp, 0.5 * a * a, bd * bd, log_decay, steps)
    a2 = a * a
    return mass, survival, overlap, a2 * (2.0 * bd * bd + a2 * decay) / (survival * survival)


def final_step(params: ProtocolParams) -> tuple[float, float, float, float]:
    """:func:`tree` of ``params`` at its final step k, as a sweep evaluates it."""
    return tree(*normalised(params), float(params.k))


def ledger(mode: Mode, prior, mass, survival, overlap, gap):
    """Click-leaf cost, survived-leaf cost and total under ``mode`` of floats or arrays of
    :func:`tree`, whose gap 1 - O^2 goes to :func:`helstrom_cost` as its complement as it is."""
    click, survived = (0.5, 0.0) if mode is Mode.PAPER else (
        guess_only_cost(prior), helstrom_cost(prior, overlap * overlap, gap))
    return click, survived, mass * click + survival * survived


def costs(modes, prior, a, bd, mass, survival, overlap, gap) -> list[tuple]:
    """(total, baseline_exact, baseline_paper, verdict_vs_exact, verdict_vs_paper) under each of
    ``modes``, from :func:`normalised` a, b delta and :func:`tree`, of floats or of arrays (each
    entry the float call's bits), as every pipeline prices a point. A verdict is the total minus
    that baseline, but the exact ledger's over baseline_exact is M g(M) (:func:`_excess`), which
    keeps its digits where the click mass M is tiny; the others cancel only where they cross 0."""
    a2, beta = a * a, bd * bd
    base_exact = helstrom_cost(prior, beta * beta, a2 * (1.0 + beta))
    base_paper = helstrom_cost(prior, beta, a2)
    priced = []
    for mode in modes:
        total = ledger(mode, prior, mass, survival, overlap, gap)[2]
        margin = mass * _excess(prior, a2, beta, mass) if mode is Mode.EXACT else total - base_exact
        priced.append((total, base_exact, base_paper, margin, total - base_paper))
    return priced


def _excess(prior, a2, beta, mass):
    """g = (a^2 / 2)(q a^2 / X(0) + q a^2 / X(M)) / (sqrt(A(0)) + sqrt(A(M))), q = 4 xi (1 - xi),
    c = |1 - 2 xi|, beta = b^2 delta^2, A(M) = c^2 (1 - M)^2 + q a^2 (1 + beta - 2 M), X(M) =
    c^2 (1 - M) + q a^2 + c sqrt(A(M)); a denominator is 0 only at xi = 1/2, a = 0, with its numerator."""
    sqrt = _math(mass).sqrt
    rest, c, qa2 = 1.0 - mass, abs(1.0 - 2.0 * prior), 4.0 * prior * (1.0 - prior) * a2
    c2 = c * c
    root0, root = sqrt(c2 + qa2 * (1.0 + beta)), sqrt(rest * rest * c2 + qa2 * (1.0 + beta - 2.0 * mass))
    x0, x, roots = c2 + qa2 + c * root0, rest * c2 + qa2 + c * root, root0 + root
    return 0.5 * a2 * (qa2 / (x0 + (x0 == 0.0)) + qa2 / (x + (x == 0.0))) / (roots + (roots == 0.0))


def survived_state(a, bd, x, k, survival) -> tuple[complex, ...]:
    """The survived state of hypothesis 0 (its mirror is hypothesis 1's) from :func:`normalised`
    floats, k and 1 - M_k, as a 5-tuple of complex, x = delta dt: ((a/2)(c^k + cos kx),
    -i (a/2) sin kx, i (a/2) sin kx, (a/2)(c^k - cos kx), b delta) times 1 / sqrt(1 - M_k), a
    product, which rounds as numpy's division of a complex array by a real one does."""
    # c^k with its sign: the even amplitude flips at every step when c < 0.
    ck = math.exp(0.5 * (k * _decay(x)[1])) * math.copysign(1.0, math.cos(x)) ** k
    cos_kx, sin_kx, scale = math.cos(k * x), math.sin(k * x), 1.0 / math.sqrt(survival)
    return tuple([complex(c) * scale for c in (0.5 * a * (ck + cos_kx), -0.5j * a * sin_kx, 0.5j * a * sin_kx,
                                               0.5 * a * (ck - cos_kx), bd)])


def run(params: ProtocolParams) -> ProtocolReport:
    """Evaluate the outcome tree in closed form at its final step k, as every pipeline does.

    The report holds :func:`final_step` and computes its costs and per-step values when read,
    by the closed forms of the module docstring with c^(2 j) = exp(j log1p(-s^2)) and the click
    mass M_j = -(a^2 / 2) expm1(j log1p(-s^2)); expm1 keeps M_j accurate where the clicks are far
    below the rounding of 1, as in the Zeno regime of many close probes."""
    return ProtocolReport(params, *final_step(params))

"""Independent oracles for the test suite.

Nothing here imports the package under test. Evolution goes through a dense
Pade matrix exponential, the protocol walk is a plain Python reimplementation
with its own Bayes bookkeeping, the Helstrom form is written out inline
with 1 - T taken from the walk's states by the Lagrange identity, and the
mixed-state Helstrom cost goes through the trace norm, so agreement with
the package is a genuine cross-check rather than the same code evaluated
twice. The closed forms are also evaluated at 50 digits with ``decimal``,
a reference far below the rounding of any float result, and a least-squares
line is solved in exact rational arithmetic. A sweep report, a
scaling CSV and a run report are rendered cell by cell, each float through
``format(v, f".{digits}g")`` and each CSV through ``csv.writer``: the bytes
the package's renderers must write.
"""

from __future__ import annotations

import csv
import io
import math
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import chain

import numpy as np
import scipy.linalg


def ham5(e0: float, e1: float, delta: float) -> np.ndarray:
    mat = np.zeros((5, 5), dtype=np.complex128)
    mat[0, 0] = mat[1, 1] = mat[2, 2] = mat[3, 3] = e0
    mat[4, 4] = e1
    mat[0, 1] = mat[1, 0] = mat[2, 3] = mat[3, 2] = delta
    return mat


def expm_evolve(e0: float, e1: float, delta: float, t: float, vec) -> np.ndarray:
    u = scipy.linalg.expm(-1j * ham5(e0, e1, delta) * t)
    return u @ np.asarray(vec, dtype=np.complex128)


def first_click_closed_form(a: float, delta: float, dt: float) -> float:
    """Click probability of the first probe from (a,0,0,0,b*delta).

    The upper 2x2 block rotates as exp(-i e0 dt)(cos(delta dt) I
    - i sin(delta dt) sigma_x), so the transverse amplitude is
    -i a sin(delta dt) and the probe picks up half its weight.
    """
    return 0.5 * a**2 * math.sin(delta * dt) ** 2


def helstrom_inline(prior: float, transition: float, complement: float | None = None) -> float:
    """2 xi (1 - xi) T / (1 + sqrt((1 - 2 xi)^2 + 4 xi (1 - xi)(1 - T))).

    The complement 1 - T defaults to 1 - transition, which is exact enough
    where T is small (the baselines); near-parallel pairs need it passed.
    """
    rest = 1.0 - transition if complement is None else complement
    w = prior * (1.0 - prior)
    return 2.0 * w * transition / (1.0 + math.sqrt((1.0 - 2.0 * prior) ** 2 + 4.0 * w * rest))


def gram_complement(u, v) -> float:
    """1 - |<u|v>|^2 of two unit vectors from the Lagrange identity
    |u|^2 |v|^2 - |<u|v>|^2 = sum over i < j of |u_i v_j - u_j v_i|^2, a sum
    of squares that keeps its digits when u and v are nearly parallel.
    """
    w = np.outer(u, v)
    return float(np.sum(np.abs(np.triu(w - w.T, 1)) ** 2))


def density(vec) -> np.ndarray:
    """Rank-one density matrix |v><v| of an amplitude vector."""
    vec = np.asarray(vec, dtype=np.complex128)
    return np.outer(vec, vec.conj())


def helstrom_trace_norm(rho0, rho1, prior: float) -> float:
    """Helstrom cost of two density matrices, (1 - ||xi rho0 - (1 - xi) rho1||_1) / 2.

    The trace norm sums the absolute eigenvalues of the Hermitian difference.
    Inputs are not validated.
    """
    gamma = prior * np.asarray(rho0) - (1.0 - prior) * np.asarray(rho1)
    return 0.5 * (1.0 - float(np.sum(np.abs(np.linalg.eigvalsh(gamma)))))


def candidate_pair(b: float, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """The states (a, 0, 0, 0, b*delta) and (0, 0, 0, a, b*delta), a = sqrt(1 - (b*delta)^2)."""
    a = math.sqrt(1.0 - (b * delta) ** 2)
    return (np.array([a, 0, 0, 0, b * delta], dtype=np.complex128),
            np.array([0, 0, 0, a, b * delta], dtype=np.complex128))


def naive_run(b: float, delta: float, k: int, dt: float,
              e0: float = 1.0, e1: float = 2.0, xi: float = 0.5,
              paper_ledger: bool = False, start=None) -> dict:
    """Reference protocol walk with dense-exponential evolution.

    The walk starts from ``start``, a pair of unit 5-vectors for hypotheses
    0 and 1, or by default from :func:`candidate_pair`. Returns leaf
    probabilities per hypothesis, the exact-ledger (or, with paper_ledger,
    the idealized-ledger) total, the final conditioned overlap magnitude,
    the cumulative survival pair and the survived pair of states.
    """
    m = np.zeros(5, dtype=np.complex128)
    m[1] = m[2] = 1.0 / math.sqrt(2.0)
    u = scipy.linalg.expm(-1j * ham5(e0, e1, delta) * dt)
    states = [np.asarray(v, dtype=np.complex128)
              for v in (candidate_pair(b, delta) if start is None else start)]
    cum = [1.0, 1.0]
    leaf_p0, leaf_p1 = [], []
    total = 0.0
    for _ in range(k):
        clicks = []
        for h in range(2):
            v = u @ states[h]
            amp = np.vdot(m, v)
            clicks.append(abs(amp) ** 2)
            residual = v - amp * m
            states[h] = residual / np.linalg.norm(residual)
        p0 = cum[0] * clicks[0]
        p1 = cum[1] * clicks[1]
        leaf_p0.append(p0)
        leaf_p1.append(p1)
        marg = xi * p0 + (1.0 - xi) * p1
        post = xi * p0 / marg if marg > 0.0 else xi
        total += marg * (0.5 if paper_ledger else min(post, 1.0 - post))
        cum[0] *= 1.0 - clicks[0]
        cum[1] *= 1.0 - clicks[1]
    marg = xi * cum[0] + (1.0 - xi) * cum[1]
    post = xi * cum[0] / marg if marg > 0.0 else xi
    overlap = abs(np.vdot(states[0], states[1]))
    if not paper_ledger:
        total += marg * helstrom_inline(post, overlap**2, gram_complement(*states))
    leaf_p0.append(cum[0])
    leaf_p1.append(cum[1])
    return {
        "total": total,
        "leaf_p0": leaf_p0,
        "leaf_p1": leaf_p1,
        "final_overlap": overlap,
        "cumulative_survival": tuple(cum),
        "survived_pair": tuple(states),
    }


def random_pure_state(rng: np.random.Generator, dim: int = 5) -> np.ndarray:
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return vec / np.linalg.norm(vec)


# Digits of the ``decimal`` reference: far beyond the 17 a float carries, so its
# own rounding is nowhere near the engine's.
DECIMAL_DIGITS = 50


def _decimal_sin(x: Decimal) -> Decimal:
    """sin x by its Taylor series, the recipe of the ``decimal`` documentation."""
    term, total, n = x, x, 1
    while True:
        n += 2
        term = -term * x * x / (n * (n - 1))
        if total + term == total:
            return total
        total += term


def _decimal_helstrom(xi: Decimal, transition: Decimal) -> Decimal:
    """H(xi, T) = (1 - sqrt(1 - 4 q T)) / 2 with q = xi (1 - xi), in the form that does not
    cancel, 2 q T / (1 + sqrt((1 - 2 xi)^2 + 4 q (1 - T))): where 4 q T is below the
    context's rounding of 1, the first form loses every digit."""
    q = xi * (1 - xi)
    return 2 * q * transition / (1 + ((1 - 2 * xi) ** 2 + 4 * q * (1 - transition)).sqrt())


def decimal_amplitude(b, delta) -> Decimal:
    """a = sqrt(1 - (b delta)^2) at 50 digits, from floats or Decimals taken as exact."""
    with localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS
        return (1 - (Decimal(b) * Decimal(delta)) ** 2).sqrt()


def decimal_point(a, bd, delta, dt, k: int, xi, digits: int = DECIMAL_DIGITS) -> dict[str, Decimal]:
    """The closed forms of one point at ``digits`` (by default 50) digits, from floats or
    Decimals taken as exact.

    a and bd are the pair's amplitudes a and b delta, rescaled here to unit norm: given the
    engine's normalised values, the reference prices the very pair the engine prices, so
    the rounding of a = sqrt(1 - (b delta)^2) from the inputs b and delta, which costs
    eps / a^2 relative as the pair nears parallel, is not counted against the engine.
    With a^2 and bd2 = (b delta)^2 so rescaled, s = sin(delta dt) and
    M_k = (a^2 / 2)(1 - (1 - s^2)^k): the survived overlap
    O_k = |bd2 - M_k| / (1 - M_k), the Helstrom baselines H(xi, bd2^2) and
    H(xi, bd2) (see :func:`_decimal_helstrom`), the exact total
    M_k min(xi, 1 - xi) + (1 - M_k) H(xi, O_k^2), the paper total M_k / 2 and the
    idealized k a^2 dt^2 delta^2 / 4. From M_k on, the context has as many more digits
    as s^2 has leading zeros, so that 1 - s^2 holds all of s^2 and M_k keeps ``digits``.
    """
    with localcontext() as ctx:
        ctx.prec = digits
        a, bd, delta, dt, xi = map(Decimal, (a, bd, delta, dt, xi))
        norm2 = a * a + bd * bd
        a2, bd2 = a * a / norm2, bd * bd / norm2
        s2 = _decimal_sin(delta * dt) ** 2
        ctx.prec += max(0, -s2.adjusted())
        mass = a2 / 2 * (1 - (1 - s2) ** int(k))
        overlap = abs(bd2 - mass) / (1 - mass)
        return {
            "final_overlap": overlap,
            "baseline_exact": _decimal_helstrom(xi, bd2 * bd2),
            "baseline_paper": _decimal_helstrom(xi, bd2),
            "total_exact": mass * min(xi, 1 - xi) + (1 - mass) * _decimal_helstrom(xi, overlap * overlap),
            "total_paper": mass / 2,
            "paper_new_cost": int(k) * a2 * dt * dt * delta * delta / 4,
        }


def decimal_exact_verdict(a, bd, delta, dt, k: int, xi) -> Decimal:
    """The exact-ledger verdict total_exact - baseline_exact of :func:`decimal_point`, to 50
    digits. The difference cancels the digits its two terms share, as many as the verdict is
    orders below the total (~43 at b delta = 1 - 1e-15, where the verdict is O(a^6) of it), so
    each pass adds the digits the last one saw cancel, all of them where it came out 0, until
    50 are left. A total of 0 (a prior of 0 or 1) gives 0, and a pass at 400 digits the last."""
    digits = DECIMAL_DIGITS
    while True:
        ref = decimal_point(a, bd, delta, dt, k, xi, digits)
        total = ref["total_exact"]
        with localcontext() as ctx:
            ctx.prec = digits
            verdict = total - ref["baseline_exact"]
        lost = total.adjusted() - verdict.adjusted() if verdict else digits
        if not total or digits - lost >= DECIMAL_DIGITS or digits >= 8 * DECIMAL_DIGITS:
            return verdict
        digits = min(DECIMAL_DIGITS + lost + 2, 8 * DECIMAL_DIGITS)


def decimal_exact_total(xi, bd2, mass) -> Decimal:
    """The exact-ledger total as a function of the click mass alone, at 50 digits, from
    floats or Decimals taken as exact: f(M) = M min(xi, 1 - xi) + (1 - M) H(xi, O^2) with
    O = |bd2 - M| / (1 - M) and a^2 = 1 - bd2. H takes the form that does not cancel (see
    :func:`_decimal_helstrom`), so a prior near 0 or 1 keeps all 50 digits."""
    with localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS
        xi, bd2, mass = map(Decimal, (xi, bd2, mass))
        transition = (abs(bd2 - mass) / (1 - mass)) ** 2
        return mass * min(xi, 1 - xi) + (1 - mass) * _decimal_helstrom(xi, transition)


def decimal_auto_dt(b: float, delta: float, k: int) -> Decimal:
    """dt = b / (2 k a) of the cancellation condition, at 50 digits."""
    with localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS
        return Decimal(b) / (2 * int(k) * decimal_amplitude(b, delta))


def decimal_overlap_exponent(b: float, k: int, deltas) -> Decimal:
    """The least-squares slope of ln O_k on ln delta over ``deltas``, dt solved per delta."""
    with localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS
        xs = [Decimal(d).ln() for d in deltas]
        ys = [decimal_point(decimal_amplitude(b, d), Decimal(b) * Decimal(d), d, decimal_auto_dt(b, d, k),
                            k, 0.5)["final_overlap"].ln()
              for d in deltas]
        x_mean, y_mean = sum(xs) / len(xs), sum(ys) / len(ys)
        return (sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
                / sum((x - x_mean) ** 2 for x in xs))


# How far a fitted slope or intercept may lie from the exact least-squares line of the same
# float points, in ulp of its scale (see :func:`least_squares_line`); fixed before measuring.
FIT_ULPS = 4


class Near:
    """Equal to each finite float within ``tol`` of ``value``, both exact Fractions."""

    def __init__(self, value: Fraction, tol: Fraction):
        self.value, self.tol = value, tol

    def __eq__(self, other) -> bool:
        return (isinstance(other, float) and math.isfinite(other)
                and abs(Fraction(other) - self.value) <= self.tol)

    def __float__(self) -> float:
        return float(self.value)

    def __repr__(self) -> str:
        return f"Near({float(self.value)!r} +- {float(self.tol):.3g})"


def least_squares_line(xs, ys) -> tuple[Near, Near]:
    """The least-squares line y = slope x + intercept through the points, floats taken as
    exact, in exact rational arithmetic: with dx = x - mean x and dy = y - mean y, slope =
    sum dx dy / sum dx^2 and intercept = mean y - slope mean x. Each comes as the floats within
    FIT_ULPS ulp of its scale: sum |dx dy| / sum dx^2 for the slope, which is |slope| where no
    term of the sum cancels, and |mean y| + |mean x| times that for the intercept."""
    xs, ys = [Fraction(x) for x in xs], [Fraction(y) for y in ys]
    x_mean, y_mean = sum(xs) / len(xs), sum(ys) / len(ys)
    terms = [(x - x_mean) * (y - y_mean) for x, y in zip(xs, ys)]
    spread = sum((x - x_mean) ** 2 for x in xs)
    slope, scale = sum(terms) / spread, sum(map(abs, terms)) / spread

    def near(value, scale):
        return Near(value, FIT_ULPS * Fraction(math.ulp(float(scale))))

    return near(slope, scale), near(y_mean - slope * x_mean, abs(y_mean) + abs(x_mean) * scale)


# The sweep CSV's columns: the fields of a report row, in order.
REPORT_COLUMNS = (
    "a", "b", "delta", "dt", "k", "xi", "mode", "total_cost", "baseline_exact", "baseline_paper",
    "paper_new_cost", "final_overlap", "overlap_exponent", "verdict_vs_baseline_exact",
    "verdict_vs_baseline_paper", "error",
)


def _fmt(value, digits: int) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.{digits}g}"
    return str(value)


def _csv(header: tuple[str, ...], rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(chain([header], rows))  # no list of all rows
    return buf.getvalue()


def render_csv(rows, digits: int = 17) -> str:
    """The sweep CSV of ``rows``, every cell formatted on its own."""
    return _csv(REPORT_COLUMNS, ([_fmt(getattr(row, col), digits) for col in REPORT_COLUMNS]
                                 for row in rows))


# The scaling CSV's columns: the keys of a scaling study's row, in order.
SCALING_COLUMNS = (
    "quantity", "b", "k", "xi", "dt_rule", "exponent", "intercept", "n_floored", "indeterminate",
    "flag", "deltas", "residuals",
)


def render_scaling_csv(rows, digits: int = 17) -> str:
    """The scaling CSV of ``rows``, every cell formatted on its own and written by ``csv.writer``."""
    return _csv(SCALING_COLUMNS, ([_fmt(row[col], digits) for col in SCALING_COLUMNS] for row in rows))


def render_run_report(report, digits: int = 17) -> str:
    """The text ``zenodisc run`` prints for one priced report: the point, its totals and
    one line per leaf, every float formatted where it is printed."""
    fmt = lambda v: _fmt(v, digits)
    p = report.params
    lines = [f"mode={p.mode.value} a={fmt(p.a)} b={fmt(p.b)} delta={fmt(p.delta)} dt={fmt(p.dt)} "
             f"k={p.k} xi={fmt(p.prior)}",
             f"total_cost       = {fmt(report.total_cost)}",
             f"baseline_exact   = {fmt(report.baseline_exact)}",
             f"baseline_paper   = {fmt(report.baseline_paper)}",
             f"paper_new_cost   = {fmt(report.paper_new_cost)}",
             f"final_overlap    = {fmt(report.final_overlap)}",
             f"verdict_vs_exact = {fmt(report.verdict_vs_exact)}",
             f"verdict_vs_paper = {fmt(report.verdict_vs_paper)}",
             "leaves (kind, step, p|h0, p|h1, marginal, posterior, cost):"]
    for leaf in report.leaves:
        step = "-" if leaf.step is None else str(leaf.step)
        lines.append(f"  {leaf.kind:<8} {step:>3} " + " ".join(
            fmt(v) for v in (leaf.p_given_h0, leaf.p_given_h1, leaf.marginal, leaf.posterior,
                             leaf.leaf_cost)))
    return "\n".join(lines) + "\n"


def _group_rows(rows):
    groups: dict[tuple, dict] = {}
    for row in rows:
        groups.setdefault((row.a, row.b, row.delta, row.dt, row.k, row.xi), {})[row.mode] = row
    return list(groups.items())


def render_summary(rows, suspect_flags: dict[str, str], digits: int = 17) -> str:
    """The adjudication summary of ``rows``, every number formatted where it is printed;
    ``suspect_flags`` maps each flagged series expression to its reason."""
    fmt = lambda v: _fmt(v, digits) or "(not run)"
    lines = []
    push = lines.append
    push("adjudication summary")
    push("====================")
    groups = _group_rows(rows)
    push(f"rows evaluated : {len(rows)}")
    push(f"parameter sets : {len(groups)}")
    push("flagged series expressions (evaluated verbatim, never corrected):")
    for name in sorted(suspect_flags):
        push(f"  {name}: {suspect_flags[name]}")
    push("")
    for idx, (key, by_mode) in enumerate(groups, start=1):
        a, b, delta, dt, k, xi = key
        push(f"set {idx}: a={fmt(a)} b={fmt(b)} delta={fmt(delta)} "
             f"dt={fmt(dt)} k={k} xi={fmt(xi)}")
        errors = {m: r.error for m, r in by_mode.items() if r.error}
        if errors:
            for mode_name, msg in sorted(errors.items()):
                push(f"  error[{mode_name}]: {msg}")
            push("")
            continue
        exact = by_mode.get("exact")
        paper = by_mode.get("paper")
        any_row = exact or paper
        push(f"  total_cost[exact]       = {fmt(exact.total_cost if exact else None)}")
        push(f"  total_cost[paper]       = {fmt(paper.total_cost if paper else None)}")
        push(f"  baseline_exact          = {fmt(any_row.baseline_exact)}")
        push(f"  baseline_paper          = {fmt(any_row.baseline_paper)}")
        baseline_ratio = (any_row.baseline_exact / any_row.baseline_paper
                          if any_row.baseline_paper else math.nan)
        push(f"  baseline exact/paper    = {fmt(baseline_ratio)}")
        push(f"  paper_new_cost          = {fmt(any_row.paper_new_cost)}")
        push(f"  final_overlap           = {fmt(any_row.final_overlap)}")
        push(f"  overlap delta-exponent  = {fmt(any_row.overlap_exponent)}")
        if exact and exact.total_cost is not None:
            ok = exact.verdict_vs_baseline_exact >= 0.0
            push(f"  exact-ledger sanity (total >= baseline_exact): "
                 f"{'holds' if ok else 'VIOLATED'}  margin={fmt(exact.verdict_vs_baseline_exact)}")
        if paper and paper.total_cost is not None:
            ok = paper.total_cost < paper.baseline_paper
            ratio = (paper.total_cost / paper.baseline_paper
                     if paper.baseline_paper else math.nan)
            push(f"  paper-ledger claim (total < baseline_paper): "
                 f"{'holds' if ok else 'fails'}  ratio={fmt(ratio)}")
        push("")
    return "\n".join(lines) + "\n"

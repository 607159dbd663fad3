"""The evolve-and-ask experiment engine with full Bayesian branch accounting.

One experiment: prepare one of two candidate states with prior xi, then k
times (evolve for dt, measure along the fixed transverse direction and keep
only the null outcome), and finally discriminate whatever survived with the
optimal terminal measurement. Because every measurement is binary and click
branches terminate, the outcome tree has exactly k + 1 leaves: a click at
step i (i = 1..k) or survival through all k steps. All branch probabilities
are computed exactly; nothing is sampled.

Two cost ledgers are supported:

* ``Mode.EXACT``: every leaf is charged its true Bayes cost at its own
  posterior. Click leaves collapse both hypotheses onto the measurement
  direction, so their cost is min(posterior, 1 - posterior); the survived
  leaf is charged the Helstrom cost of its conditioned state pair.
* ``Mode.PAPER``: the idealized ledger in which a click costs exactly 1/2
  and full survival costs 0. Its weighted total is what the closed form
  ``total_cost_paper_mode`` approximates at second order in delta.

The gap between the two ledgers on the same exact branch probabilities is
the whole point of the laboratory.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import qcore
from .helstrom import guess_only_cost, helstrom_cost
from .qcore import HamiltonianSpec, MeasurementDirection, PureState, ValidationError

# Candidate-state normalization a^2 + (b delta)^2 = 1 is enforced to this
# tolerance; construction helpers hit it to machine precision anyway.
NORM_SLACK = 1e-9


class Mode(enum.Enum):
    """Leaf cost ledger; see the module docstring."""

    EXACT = "exact"
    PAPER = "paper"


def default_direction() -> MeasurementDirection:
    """The fixed transverse probe direction (0,1,1,0,0)/sqrt(2)."""
    vec = np.zeros(5, dtype=np.complex128)
    vec[1] = vec[2] = 1.0 / math.sqrt(2.0)
    return MeasurementDirection(vec)


@dataclass(frozen=True)
class ProtocolParams:
    """One complete experiment definition.

    a and b parameterize the candidate pair (a, 0, 0, 0, b*delta) and
    (0, 0, 0, a, b*delta); they must satisfy a^2 + (b*delta)^2 = 1. Use
    :meth:`from_b` or :meth:`from_a` to get the normalization right
    automatically, with dt=None solving the overlap-cancellation condition
    2*k*a*dt = b.
    """

    a: float
    b: float
    delta: float
    dt: float
    k: int
    e0: float = 1.0
    e1: float = 2.0
    prior: float = 0.5
    direction: MeasurementDirection = field(default_factory=default_direction)
    mode: Mode = Mode.EXACT

    def __post_init__(self):
        for name in ("a", "b", "delta", "dt", "e0", "e1", "prior"):
            val = getattr(self, name)
            if not (isinstance(val, (int, float)) and math.isfinite(val)):
                raise ValidationError(f"{name} must be a finite real number, got {val!r}")
        if not isinstance(self.k, int) or self.k < 1:
            raise ValidationError(f"k must be an integer >= 1, got {self.k!r}")
        if self.dt <= 0.0:
            raise ValidationError(f"dt must be positive, got {self.dt!r}")
        if self.delta < 0.0:
            raise ValidationError(f"delta must be nonnegative, got {self.delta!r}")
        if not (0.0 <= self.prior <= 1.0):
            raise ValidationError(f"prior must lie in [0, 1], got {self.prior!r}")
        residual = self.a**2 + (self.b * self.delta) ** 2 - 1.0
        if abs(residual) > NORM_SLACK:
            raise ValidationError(
                f"a^2 + (b*delta)^2 = {1.0 + residual!r} violates normalization beyond {NORM_SLACK}"
            )
        if not isinstance(self.mode, Mode):
            raise ValidationError(f"mode must be a Mode, got {self.mode!r}")
        if self.direction.dim != 5:
            raise ValidationError("direction must have dimension 5")

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


def amplitudes(delta: float, a: float | None = None, b: float | None = None
               ) -> tuple[float, float]:
    """The pair (a, b) with a^2 + (b*delta)^2 = 1, derived from b when given, else from a."""
    if b is not None:
        bd = b * delta
        if not abs(bd) <= 1.0:
            raise ValidationError(f"|b*delta| = {abs(bd)!r} exceeds 1; no valid amplitude a")
        return math.sqrt(max(1.0 - bd * bd, 0.0)), b
    if not (0.0 <= a <= 1.0):
        raise ValidationError(f"a must lie in [0, 1], got {a!r}")
    if delta > 0.0:
        return a, math.sqrt(max(1.0 - a * a, 0.0)) / delta
    if a == 1.0:
        return a, 0.0
    raise ValidationError("delta = 0 requires a = 1")


def rescale_delta(params: ProtocolParams, delta: float, auto_dt: bool = False) -> ProtocolParams:
    """Move ``params`` to a new delta holding b fixed and re-deriving a.

    With auto_dt the spacing is re-solved from 2*k*a*dt = b; otherwise the
    original dt is kept. Used by the delta-scaling studies.
    """
    return ProtocolParams.from_b(
        params.b, delta, params.k,
        dt=None if auto_dt else params.dt,
        e0=params.e0, e1=params.e1, prior=params.prior,
        direction=params.direction, mode=params.mode,
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
    """Totals, baselines, trajectories, and the verdict for one experiment.

    verdict_vs_exact and verdict_vs_paper are the signed differences between
    total_cost and the two Helstrom baselines (positive: the protocol did
    worse than that baseline). overlap_trajectory[i] is |<s0|s1>| of the
    conditioned survival states after i steps, so entry 0 is the initial
    overlap b^2 delta^2; survival_trajectory[i] is the pair of cumulative
    survival probabilities after i steps. survived_pair holds the two
    hypothesis-conditioned states of the survived leaf.
    """

    params: ProtocolParams
    leaves: tuple[LeafRecord, ...]
    survived_pair: tuple[PureState, PureState]
    total_cost: float
    baseline_exact: float
    baseline_paper: float
    paper_new_cost: float
    overlap_trajectory: tuple[float, ...]
    survival_trajectory: tuple[tuple[float, float], ...]
    verdict_vs_exact: float
    verdict_vs_paper: float

    @property
    def final_overlap(self) -> float:
        return self.overlap_trajectory[-1]


def initial_states(params: ProtocolParams) -> tuple[PureState, PureState]:
    """The candidate pair (a, 0, 0, 0, b*delta) and (0, 0, 0, a, b*delta)."""
    bd = params.b * params.delta
    raw0 = np.array([params.a, 0.0, 0.0, 0.0, bd], dtype=np.complex128)
    raw1 = np.array([0.0, 0.0, 0.0, params.a, bd], dtype=np.complex128)
    # Params admit NORM_SLACK; states themselves must be exactly unit.
    return qcore.normalize(raw0), qcore.normalize(raw1)


def solve_orthogonality(a: float, b: float, k: int) -> float:
    """Spacing dt = b / (2 k a) solving the cancellation condition 2*k*a*dt = b."""
    if not isinstance(k, int) or k < 1:
        raise ValidationError(f"k must be an integer >= 1, got {k!r}")
    if not a > 0.0:
        raise ValidationError(f"a must be positive, got {a!r}")
    if not b > 0.0:
        raise ValidationError(f"b must be positive, got {b!r}")
    return b / (2.0 * k * a)


def total_cost_paper_mode(params: ProtocolParams) -> float:
    """Closed-form idealized total cost k a^2 dt^2 delta^2 / 4.

    This is the second-order value of the PAPER ledger: k click chances of
    probability a^2 dt^2 delta^2 / 2 each costing 1/2 plus a free survived
    branch. It is independent of the exact simulation by construction.
    """
    return params.k * params.a**2 * params.dt**2 * params.delta**2 / 4.0


def _branch(prior: float, p0: float, p1: float) -> tuple[float, float, float, float]:
    """(p_given_h0, p_given_h1, marginal, posterior) of one leaf; the posterior
    falls back to the prior on a zero-probability leaf."""
    marginal = prior * p0 + (1.0 - prior) * p1
    return p0, p1, marginal, prior * p0 / marginal if marginal > 0.0 else prior


def run(params: ProtocolParams,
        initial_pair: tuple[PureState, PureState] | None = None) -> ProtocolReport:
    """Evaluate the full outcome tree exactly and adjudicate the totals.

    Both hypotheses are walked together as the two unit columns of one 5x2
    array: each step evolves them, records the click branch, and projects the
    columns onto the null outcome and renormalizes them. After step k the
    survived leaf receives the terminal Helstrom measurement. A hypothesis
    whose survival underflows the pruning floor clicks with all its
    remaining weight and is no longer measured; once both have, the walk
    stops early. The leaves are charged as :func:`price` charges them.

    Cumulative survival is exp(sum of log1p(-click)) rather than a running
    product of (1 - click): the product rounds each tiny click away against
    1, which at k = 10^4 moves 1 - P(survive) by about 1e-13.

    initial_pair overrides the default candidate states, e.g. to check
    hypothesis-relabeling symmetry; both states must be 5-dimensional.
    """
    spec = HamiltonianSpec(e0=params.e0, e1=params.e1, delta=params.delta)
    m = params.direction.vector
    if initial_pair is None:
        s0, s1 = initial_states(params)
    else:
        s0, s1 = initial_pair
        if s0.dim != 5 or s1.dim != 5:
            raise ValidationError("initial states must have dimension 5")
    prior = params.prior

    initial_overlap = abs(qcore.inner_product(s0, s1))
    baseline_exact = helstrom_cost(prior, initial_overlap**2)
    baseline_paper = helstrom_cost(prior, initial_overlap)

    u = qcore.propagator(spec, params.dt)
    m_conj, m_col = m.conj(), m[:, None]
    cols = np.column_stack([s0.amplitudes, s1.amplitudes])
    alive = np.ones(2, dtype=bool)
    log_survival = np.zeros(2)
    cum = np.ones(2)
    branches: list[tuple[float, float, float, float]] = []
    overlap_traj = [initial_overlap]
    survival_traj = [(1.0, 1.0)]

    for _ in range(params.k):
        cols = u @ cols
        amp = m_conj @ cols
        click = np.minimum(amp.real**2 + amp.imag**2, 1.0)
        residual = cols - m_col * amp
        norm2 = np.sum(residual.real**2 + residual.imag**2, axis=0)
        # The null branch is numerically dead on either signal: survival
        # below the floor, or a residual too short to renormalize.
        dying = alive & ((1.0 - click < qcore.PRUNE_FLOOR) | (norm2 < qcore.PRUNE_FLOOR))
        alive &= ~dying
        # A dying column clicks with all its remaining weight, a dead one
        # never clicks; both survive with probability 0 from here on.
        measured = np.where(alive, click, 0.0)
        click = np.where(dying, 1.0, measured)
        # Dead columns keep evolving unmeasured, as the overlap trajectory
        # and the survived leaf read them.
        cols = np.where(alive, residual / np.sqrt(np.where(alive, norm2, 1.0)), cols)

        branches.append(_branch(prior, *(cum * click).tolist()))
        log_survival = np.where(alive, log_survival + np.log1p(-measured), -np.inf)
        cum = np.exp(log_survival)
        overlap_traj.append(abs(complex(np.vdot(cols[:, 0], cols[:, 1]))))
        survival_traj.append(tuple(cum.tolist()))
        if not alive.any():
            break

    branches.append(_branch(prior, *cum.tolist()))
    return ProtocolReport(
        params=params,
        survived_pair=(PureState(cols[:, 0].copy()), PureState(cols[:, 1].copy())),
        baseline_exact=baseline_exact,
        baseline_paper=baseline_paper,
        paper_new_cost=total_cost_paper_mode(params),
        overlap_trajectory=tuple(overlap_traj),
        survival_trajectory=tuple(survival_traj),
        **_charge(params.mode, branches, overlap_traj[-1], baseline_exact, baseline_paper),
    )


def price(report: ProtocolReport, mode: Mode) -> ProtocolReport:
    """The walk behind ``report`` charged under the ledger ``mode``.

    Only the leaf costs, the total and the verdicts depend on the ledger, so
    this equals :func:`run` with ``mode`` without walking the tree again.
    """
    if mode is report.params.mode:
        return report
    branches = [(leaf.p_given_h0, leaf.p_given_h1, leaf.marginal, leaf.posterior)
                for leaf in report.leaves]
    return replace(report, params=replace(report.params, mode=mode),
                   **_charge(mode, branches, report.final_overlap,
                             report.baseline_exact, report.baseline_paper))


def _charge(mode: Mode, branches: list[tuple[float, float, float, float]],
            final_overlap: float, baseline_exact: float, baseline_paper: float) -> dict:
    """The ledger's fields of a report: the charged leaves, total and verdicts.

    branches holds (p_given_h0, p_given_h1, marginal, posterior) per leaf,
    the clicks in step order and the survived leaf last; final_overlap is
    |<s0|s1>| of the survived pair.
    """
    *clicks, (_, _, _, survived_post) = branches
    if mode is Mode.PAPER:
        costs = [0.5] * len(clicks) + [0.0]
    else:
        costs = [guess_only_cost(post) for _, _, _, post in clicks]
        costs.append(helstrom_cost(survived_post, final_overlap**2))
    steps = [*range(1, len(clicks) + 1), None]
    leaves = tuple(
        LeafRecord("click" if step else "survived", step, *branch, cost)
        for step, branch, cost in zip(steps, branches, costs))
    total = math.fsum(leaf.marginal * leaf.leaf_cost for leaf in leaves)
    return dict(leaves=leaves, total_cost=total, verdict_vs_exact=total - baseline_exact,
                verdict_vs_paper=total - baseline_paper)

"""Bayes 0-1 cost machinery for binary state discrimination.

Cost convention: a correct hypothesis choice costs 0, an incorrect one
costs 1, so every expected cost lives in [0, 1/2] and can never beat
min(prior, 1 - prior), the cost of guessing without looking.

For a pure pair the Helstrom cost is a closed form of the prior, the
transition probability T and 1 - T, which is all the protocol engine
needs: it holds the overlap of every pair it prices. The general
mixed-state route, the trace norm (1 - ||xi rho0 - (1 - xi) rho1||_1) / 2,
is kept in the test suite's oracles as an independent cross-check of that
closed form.

Two transition-probability conventions appear in this package. The standard
one squares the overlap: T = |<psi0|psi1>|^2. The alternative that feeds the
squared-cosine slot with the overlap magnitude itself lives in
:mod:`zenodisc.series` as ``baseline_paper_convention``; reports always
print both so the conventions are never silently merged.
"""

from __future__ import annotations

import math

from .qcore import ValidationError


def helstrom_cost(prior: float, transition_probability: float, complement: float) -> float:
    """Minimum Bayes 0-1 cost of a pure pair from the prior xi, T and 1 - T.

    Evaluates 2 xi (1 - xi) T / (1 + sqrt((1 - 2 xi)^2 + 4 xi (1 - xi)(1 - T))),
    the form of (1 - sqrt(1 - 4 xi (1 - xi) T)) / 2 that does not cancel:
    small T loses nothing, and near-parallel pairs keep the digits of the
    caller's 1 - T, so callers pass it in closed form. T and 1 - T must lie
    in [0, 1] and sum to 1 within 1e-9. Which quantity plays T is the
    caller's choice; see the module docstring.
    """
    if not (0.0 <= prior <= 1.0):
        raise ValidationError(f"prior must lie in [0, 1], got {prior!r}")
    for name, val in (("transition probability", transition_probability), ("complement", complement)):
        if not (-1e-12 <= val <= 1.0 + 1e-12):
            raise ValidationError(f"{name} must lie in [0, 1], got {val!r}")
    if abs(transition_probability + complement - 1.0) > 1e-9:
        raise ValidationError(f"T = {transition_probability!r} and 1 - T = {complement!r} do not sum to 1")
    t, rest = min(max(transition_probability, 0.0), 1.0), min(max(complement, 0.0), 1.0)
    spread = prior * (1.0 - prior)
    return 2.0 * spread * t / (1.0 + math.sqrt((1.0 - 2.0 * prior) ** 2 + 4.0 * spread * rest))


def guess_only_cost(prior: float) -> float:
    """Bayes cost when no measurement information is available: min(xi, 1 - xi)."""
    if not (0.0 <= prior <= 1.0):
        raise ValidationError(f"prior must lie in [0, 1], got {prior!r}")
    return min(prior, 1.0 - prior)

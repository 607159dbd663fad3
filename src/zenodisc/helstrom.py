"""Bayes 0-1 cost machinery for binary state discrimination.

Cost convention: a correct hypothesis choice costs 0, an incorrect one
costs 1, so every expected cost lives in [0, 1/2] and can never beat
min(prior, 1 - prior), the cost of guessing without looking.

For a pure pair the Helstrom cost is a closed form of the prior and the
transition probability T, which is all the protocol engine needs: it holds
the overlap of every pair it prices. The general mixed-state route, the
trace norm (1 - ||xi rho0 - (1 - xi) rho1||_1) / 2, is kept in the test
suite's oracles as an independent cross-check of that closed form.

Two transition-probability conventions appear in this package. The standard
one squares the overlap: T = |<psi0|psi1>|^2. The alternative that feeds the
squared-cosine slot with the overlap magnitude itself lives in
:mod:`zenodisc.series` as ``baseline_paper_convention``; reports always
print both so the conventions are never silently merged.
"""

from __future__ import annotations

import math

from .qcore import ValidationError


def helstrom_cost(prior: float, transition_probability: float) -> float:
    """Minimum Bayes 0-1 cost as a closed form of prior and transition probability.

    Evaluates (1 - sqrt(1 - 4 xi (1 - xi) T)) / 2 with the radicand clipped
    at zero against roundoff. Which quantity plays T is the caller's choice;
    see the module docstring.
    """
    if not (0.0 <= prior <= 1.0):
        raise ValidationError(f"prior must lie in [0, 1], got {prior!r}")
    if not (-1e-12 <= transition_probability <= 1.0 + 1e-12):
        raise ValidationError(f"transition probability must lie in [0, 1], got {transition_probability!r}")
    t = min(max(transition_probability, 0.0), 1.0)
    radicand = max(1.0 - 4.0 * prior * (1.0 - prior) * t, 0.0)
    return 0.5 * (1.0 - math.sqrt(radicand))


def guess_only_cost(prior: float) -> float:
    """Bayes cost when no measurement information is available: min(xi, 1 - xi)."""
    if not (0.0 <= prior <= 1.0):
        raise ValidationError(f"prior must lie in [0, 1], got {prior!r}")
    return min(prior, 1.0 - prior)

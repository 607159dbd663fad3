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

Floats go through ``math`` and never import numpy; only arrays, which exist
once their caller has imported numpy, go through it. This lowest layer defines
:class:`ValidationError`, which every layer raises.
"""

from __future__ import annotations

import math
import sys
from types import SimpleNamespace


class ValidationError(ValueError):
    """An input violates a documented precondition."""


def _numpy(*values):
    """numpy where one of ``values`` is a numpy array, else None, decided without importing
    numpy: until some caller has imported it, nothing can be an array."""
    np = sys.modules.get("numpy")
    if np is not None:
        for v in values:
            if isinstance(v, np.ndarray):
                return np
    return None


def _reject(holds, messages, *values) -> None:
    """Raise the message of the first of ``holds`` that fails, filled with ``values``; over
    arrays, with the values of the first entry where that check fails."""
    for ok, message in zip(holds, messages):
        np = _numpy(ok)
        if np:
            if ok.all():
                continue
            first = np.flatnonzero(~ok)[0]
            values = [np.broadcast_to(v, ok.shape).flat[first].item() for v in values]
        elif ok:
            continue
        raise ValidationError(message.format(*values))


_FLOATS = SimpleNamespace(all=bool, sqrt=math.sqrt, minimum=min, maximum=max)


def _math(*values):
    """numpy where one of ``values`` is a numpy array (see :func:`_numpy`), else ``math`` and
    builtins under numpy's names: ``all``, ``sqrt``, ``minimum`` and ``maximum``."""
    return _numpy(*values) or _FLOATS


_HELSTROM_MESSAGES = ("prior must lie in [0, 1], got {0!r}",
                      "transition probability must lie in [0, 1], got {1!r}",
                      "complement must lie in [0, 1], got {2!r}",
                      "T = {1!r} and 1 - T = {2!r} do not sum to 1")


def helstrom_cost(prior, transition_probability, complement):
    """Minimum Bayes 0-1 cost of a pure pair from the prior xi, T and 1 - T.

    Evaluates 2 xi (1 - xi) T / (1 + sqrt((1 - 2 xi)^2 + 4 xi (1 - xi)(1 - T))),
    the form of (1 - sqrt(1 - 4 xi (1 - xi) T)) / 2 that does not cancel:
    small T loses nothing, and near-parallel pairs keep the digits of the
    caller's 1 - T, so callers pass it in closed form. T and 1 - T must lie
    in [0, 1] and sum to 1 within 1e-9. Which quantity plays T is the
    caller's choice; see the module docstring.

    Takes floats, or arrays entry by entry: floats go through ``math``, arrays
    through numpy (:func:`_math`), and the square is a product on both, so each
    entry equals the float call on it bit for bit.
    """
    t, rest = transition_probability, complement
    holds = ((prior >= 0.0) & (prior <= 1.0), (t >= -1e-12) & (t <= 1.0 + 1e-12),
             (rest >= -1e-12) & (rest <= 1.0 + 1e-12),
             # T within 1e-9 of 1 - (1 - T), with no sum of inf and -inf, which numpy warns of
             (t >= 1.0 - 1e-9 - rest) & (t <= 1.0 + 1e-9 - rest))
    valid = holds[0] & holds[1] & holds[2] & holds[3]
    m = _math(valid)
    if not m.all(valid):
        _reject(holds, _HELSTROM_MESSAGES, prior, t, rest)
    # Clipped to [0, 1]; + 0.0 turns a -0 into 0, which max keeps and numpy's maximum need not.
    t = m.minimum(m.maximum(t, 0.0), 1.0) + 0.0
    rest = m.minimum(m.maximum(rest, 0.0), 1.0) + 0.0
    spread = prior * (1.0 - prior)
    bias = 1.0 - 2.0 * prior
    return 2.0 * spread * t / (1.0 + m.sqrt(bias * bias + 4.0 * spread * rest))


def guess_only_cost(prior):
    """Bayes cost when no measurement information is available: min(xi, 1 - xi),
    of a float or entry by entry of an array."""
    valid = (prior >= 0.0) & (prior <= 1.0)
    m = _math(valid)
    if not m.all(valid):
        _reject((valid,), _HELSTROM_MESSAGES, prior)
    return m.minimum(prior, 1.0 - prior)

"""Independent oracles for the test suite.

Nothing here imports the package under test. Evolution goes through a dense
Pade matrix exponential, the protocol walk is a plain Python reimplementation
with its own Bayes bookkeeping, the Helstrom form is written out inline
with 1 - T taken from the walk's states by the Lagrange identity, and the
mixed-state Helstrom cost goes through the trace norm, so agreement with
the package is a genuine cross-check rather than the same code evaluated
twice.
"""

from __future__ import annotations

import math

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

"""Exact finite-dimensional quantum mechanics on small dense vectors.

State vectors, unitary evolution under the two-coupled-pairs Hamiltonian,
and binary projective measurement that keeps both outcome branches.
Everything is double precision, immutable after construction, and pure, so
any of it can be called concurrently without locking.

The Hamiltonian family used throughout is the 5-level real symmetric matrix

    [[e0, delta, 0,     0,     0 ],
     [delta, e0, 0,     0,     0 ],
     [0,     0,  e0,    delta, 0 ],
     [0,     0,  delta, e0,    0 ],
     [0,     0,  0,     0,     e1]]

whose two identical 2x2 blocks and lone level make exp(-i H t) a closed form
(see :func:`propagator`). Time evolution is computed through that closed
form rather than a generic matrix exponential; a dense exponential is used
only as an independent oracle in the test suite.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

# Absolute tolerance for unit-norm checks: comfortable double-precision
# headroom at d = 5.
ATOL = 1e-12
# Branch probabilities below this floor cannot be renormalized meaningfully.
PRUNE_FLOOR = 1e-30
# Dense-matrix guard; this laboratory never needs large spaces.
MAX_DIM = 64


class ValidationError(ValueError):
    """An input violates a documented precondition."""


class DegenerateVectorError(ArithmeticError):
    """A vector is too close to zero to normalize."""


class DegenerateBranchError(ArithmeticError):
    """A measurement branch has probability too small to condition on."""


def _as_complex_vector(values) -> np.ndarray:
    vec = np.asarray(values, dtype=np.complex128)
    if vec.ndim != 1:
        raise ValidationError(f"expected a 1-d amplitude vector, got shape {vec.shape}")
    if not np.all(np.isfinite(vec.view(np.float64))):
        raise ValidationError("amplitudes must be finite")
    return vec


@dataclass(frozen=True)
class PureState:
    """A normalized complex amplitude vector.

    Construction validates unit norm to within ATOL; use :func:`normalize`
    to build one from an unnormalized vector. The underlying array is made
    read-only so instances can be shared freely.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        vec = _as_complex_vector(self.amplitudes)
        if not (2 <= vec.size <= MAX_DIM):
            raise ValidationError(f"dimension must be in [2, {MAX_DIM}], got {vec.size}")
        nrm = np.linalg.norm(vec)
        if abs(nrm - 1.0) > ATOL:
            raise ValidationError(f"state norm {nrm!r} deviates from 1 beyond {ATOL}")
        vec.setflags(write=False)
        object.__setattr__(self, "amplitudes", vec)

    @property
    def dim(self) -> int:
        return self.amplitudes.size


@dataclass(frozen=True)
class HamiltonianSpec:
    """The scalar triple (e0, e1, delta) generating the 5-level Hamiltonian.

    Energies are in units with hbar = 1, so they carry inverse-time units.
    """

    e0: float
    e1: float
    delta: float

    def __post_init__(self):
        for name in ("e0", "e1", "delta"):
            val = getattr(self, name)
            if not (isinstance(val, (int, float)) and math.isfinite(val)):
                raise ValidationError(f"{name} must be a finite real number, got {val!r}")


@dataclass(frozen=True)
class MeasurementDirection:
    """A unit vector defining a rank-one projective (yes/no) measurement."""

    vector: np.ndarray

    def __post_init__(self):
        vec = _as_complex_vector(self.vector)
        if abs(np.linalg.norm(vec) - 1.0) > ATOL:
            raise ValidationError("measurement direction must be unit norm")
        vec.setflags(write=False)
        object.__setattr__(self, "vector", vec)

    @property
    def dim(self) -> int:
        return self.vector.size


@dataclass(frozen=True)
class MeasurementOutcome:
    """Both branches of a binary projective measurement.

    click_prob + survive_prob == 1 by construction, and the branch vectors
    weighted by the square roots of their probabilities sum back to the
    measured state exactly (the phase of post_click_state is fixed to make
    that reconstruction hold, which also makes branch trees reproducible).
    """

    click_prob: float
    survive_prob: float
    post_click_state: PureState
    post_survive_state: PureState


def propagator(spec: HamiltonianSpec, t: float) -> np.ndarray:
    """exp(-i H t) for the 5-level Hamiltonian, as a 5x5 array in closed form.

    Each coupled pair, levels (1,2) and (3,4), rotates by the same 2x2 block
    e^{-i e0 t}(cos(delta t) I - i sin(delta t) X); level 5 picks up the
    phase e^{-i e1 t}. The forward sign convention is -i; every quantity
    reported by this package (probabilities, overlap magnitudes) is
    insensitive to it.
    """
    if not math.isfinite(t):
        raise ValidationError("evolution time must be finite")
    phase = cmath.exp(-1j * spec.e0 * t)
    diag = phase * math.cos(spec.delta * t)
    off = -1j * phase * math.sin(spec.delta * t)
    u = np.zeros((5, 5), dtype=np.complex128)
    u[0, 0] = u[1, 1] = u[2, 2] = u[3, 3] = diag
    u[0, 1] = u[1, 0] = u[2, 3] = u[3, 2] = off
    u[4, 4] = cmath.exp(-1j * spec.e1 * t)
    return u


def evolve(spec: HamiltonianSpec, t: float, psi: PureState) -> PureState:
    """Apply exp(-i H t) to ``psi`` through the closed-form :func:`propagator`."""
    if psi.dim != 5:
        raise ValidationError(f"evolution is defined on dimension 5, got {psi.dim}")
    return PureState(propagator(spec, t) @ psi.amplitudes)


def normalize(vector) -> PureState:
    """Scale a raw complex vector to unit norm."""
    vec = _as_complex_vector(vector)
    nrm = np.linalg.norm(vec)
    if nrm <= PRUNE_FLOOR:
        raise DegenerateVectorError(f"vector norm {nrm!r} is below the renormalization floor")
    return PureState(vec / nrm)


def measure_binary(m: MeasurementDirection, psi: PureState) -> MeasurementOutcome:
    """Binary projective measurement of ``psi`` along ``m``, keeping both branches.

    The click branch projects onto m: click_prob = |<m|psi>|^2 and the
    post-click state is m times the phase of <m|psi>, so that
    sqrt(click_prob) * post_click + sqrt(survive_prob) * post_survive
    reconstructs psi exactly. The survive (null-result) branch is the
    renormalized projection of psi onto the complement of m.

    Raises DegenerateBranchError when survive_prob falls below the pruning
    floor, signalling the caller that the null branch cannot be conditioned
    on any further.
    """
    if m.dim != psi.dim:
        raise ValidationError(f"dimension mismatch: {m.dim} vs {psi.dim}")
    amp = complex(np.vdot(m.vector, psi.amplitudes))
    click = min(abs(amp) ** 2, 1.0)
    survive = 1.0 - click
    residual = psi.amplitudes - amp * m.vector
    # Either signal means the null branch is numerically dead: a survival
    # probability below the floor, or a residual too short to renormalize
    # even when roundoff leaves survive marginally positive.
    if survive < PRUNE_FLOOR or float(np.real(np.vdot(residual, residual))) < PRUNE_FLOOR:
        raise DegenerateBranchError("survival probability underflow; branch cannot be renormalized")
    if abs(amp) > 0.0:
        post_click = PureState((amp / abs(amp)) * m.vector)
    else:
        post_click = PureState(m.vector.copy())  # zero-probability branch, phase immaterial
    post_survive = normalize(residual)
    return MeasurementOutcome(
        click_prob=click,
        survive_prob=survive,
        post_click_state=post_click,
        post_survive_state=post_survive,
    )

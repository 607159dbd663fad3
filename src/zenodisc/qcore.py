"""A state type that the package no longer builds or imports.

The outcome tree has a closed form (see ``protocol``), so nothing here evolves
or measures a state, and a report holds its survived state as a tuple of
complex; the dense step-by-step walk is an independent oracle of the test
suite. :class:`PureState` stays for the benchmark's tracer, which imports this
module to hook its construction; it imports numpy when built. It raises
:class:`ValidationError`, which ``helstrom`` defines and this module re-imports,
so ``zenodisc.qcore.ValidationError`` is ``zenodisc.ValidationError``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .helstrom import ValidationError

# Absolute tolerance for unit-norm checks: comfortable double-precision
# headroom at d = 5.
ATOL = 1e-12
# Dense-matrix guard; this laboratory never needs large spaces.
MAX_DIM = 64


@dataclass(frozen=True)
class PureState:
    """A normalized complex amplitude vector.

    Construction validates unit norm to within ATOL. The underlying array
    is made read-only so instances can be shared freely.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        import numpy as np
        vec = np.asarray(self.amplitudes, dtype=np.complex128)
        if vec.ndim != 1:
            raise ValidationError(f"expected a 1-d amplitude vector, got shape {vec.shape}")
        if not np.all(np.isfinite(vec.view(np.float64))):
            raise ValidationError("amplitudes must be finite")
        if not (2 <= vec.size <= MAX_DIM):
            raise ValidationError(f"dimension must be in [2, {MAX_DIM}], got {vec.size}")
        nrm = np.linalg.norm(vec)
        if abs(nrm - 1.0) > ATOL:
            raise ValidationError(f"state norm {nrm!r} deviates from 1 beyond {ATOL}")
        vec.setflags(write=False)
        object.__setattr__(self, "amplitudes", vec)

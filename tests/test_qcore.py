import numpy as np
import pytest

from zenodisc.qcore import PureState, ValidationError


def state(*comps):
    return PureState(np.array(comps, dtype=np.complex128))


# ---------------------------------------------------------------- types

def test_pure_state_rejects_bad_norm():
    with pytest.raises(ValidationError):
        PureState(np.array([1.0, 1.0, 0, 0, 0], dtype=np.complex128))


def test_pure_state_rejects_tiny_and_huge_dims():
    with pytest.raises(ValidationError):
        PureState(np.array([1.0], dtype=np.complex128))
    big = np.zeros(65, dtype=np.complex128)
    big[0] = 1.0
    with pytest.raises(ValidationError):
        PureState(big)


def test_pure_state_rejects_a_matrix_and_non_finite_amplitudes():
    with pytest.raises(ValidationError) as info:
        PureState(np.eye(2, dtype=np.complex128))
    assert str(info.value) == "expected a 1-d amplitude vector, got shape (2, 2)"
    with pytest.raises(ValidationError) as info:
        PureState(np.array([np.inf, 0, 0, 0, 0], dtype=np.complex128))
    assert str(info.value) == "amplitudes must be finite"


def test_pure_state_is_immutable():
    psi = state(1, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 0.5

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zenodisc import qcore
from zenodisc.qcore import (
    DegenerateBranchError,
    DegenerateVectorError,
    HamiltonianSpec,
    MeasurementDirection,
    PureState,
    ValidationError,
)

import oracles

RNG = np.random.default_rng(20260808)

SQ2 = math.sqrt(2.0)


def probe_direction():
    return MeasurementDirection(np.array([0, 1, 1, 0, 0]) / SQ2)


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


def test_pure_state_is_immutable():
    psi = state(1, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 0.5


def test_hamiltonian_spec_rejects_nonfinite():
    with pytest.raises(ValidationError):
        HamiltonianSpec(e0=math.nan, e1=0.0, delta=0.0)
    with pytest.raises(ValidationError):
        HamiltonianSpec(e0=0.0, e1=math.inf, delta=0.0)


def test_measurement_direction_requires_unit_norm():
    with pytest.raises(ValidationError):
        MeasurementDirection(np.array([0, 1, 1, 0, 0], dtype=np.complex128))


# ---------------------------------------------------------------- evolve

def test_evolve_delta_zero_only_phases():
    spec = HamiltonianSpec(1.7, 0.2, 0.0)
    psi = state(1, 0, 0, 0, 0)
    out = qcore.evolve(spec, 2.5, psi)
    assert np.allclose(out.amplitudes, np.exp(-1j * 1.7 * 2.5) * psi.amplitudes, atol=1e-14)
    assert np.allclose(np.abs(out.amplitudes), np.abs(psi.amplitudes), atol=1e-14)


def test_evolve_transverse_amplitude_is_a_sin():
    a = math.sqrt(1 - 0.25**2)
    psi = state(a, 0, 0, 0, 0.25)
    spec = HamiltonianSpec(0.9, -1.1, 0.05)
    for t in (0.3, 1.0, 4.7):
        out = qcore.evolve(spec, t, psi)
        assert abs(out.amplitudes[1]) == pytest.approx(a * abs(math.sin(0.05 * t)), abs=1e-13)


def test_evolve_group_property():
    spec = HamiltonianSpec(0.4, 1.9, 0.8)
    psi = qcore.normalize(RNG.normal(size=5) + 1j * RNG.normal(size=5))
    once = qcore.evolve(spec, 0.7 + 1.9, psi)
    twice = qcore.evolve(spec, 1.9, qcore.evolve(spec, 0.7, psi))
    assert np.max(np.abs(once.amplitudes - twice.amplitudes)) <= 1e-12


def test_evolve_matches_dense_exponential():
    for _ in range(100):
        e0, e1, d = RNG.normal(size=3) * 2.0
        t = RNG.uniform(-3, 3)
        vec = oracles.random_pure_state(RNG)
        ours = qcore.evolve(HamiltonianSpec(e0, e1, d), t, PureState(vec))
        ref = oracles.expm_evolve(e0, e1, d, t, vec)
        assert np.max(np.abs(ours.amplitudes - ref)) <= 1e-12
        dense = oracles.expm_evolve(e0, e1, d, t, np.eye(5))
        assert np.max(np.abs(qcore.propagator(HamiltonianSpec(e0, e1, d), t) - dense)) <= 1e-12


def test_evolve_validates_dimension_and_time():
    psi2 = PureState(np.array([1.0, 0.0], dtype=np.complex128))
    with pytest.raises(ValidationError):
        qcore.evolve(HamiltonianSpec(0, 0, 0), 1.0, psi2)
    with pytest.raises(ValidationError):
        qcore.evolve(HamiltonianSpec(0, 0, 0), math.inf, state(1, 0, 0, 0, 0))


@settings(max_examples=60, deadline=None)
@given(e0=st.floats(-5, 5), e1=st.floats(-5, 5), d=st.floats(0, 3), t=st.floats(-5, 5))
def test_evolve_is_unitary(e0, e1, d, t):
    psi = state(0.6, 0, 0.8j, 0, 0)
    out = qcore.evolve(HamiltonianSpec(e0, e1, d), t, psi)
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= 1e-12


# --------------------------------------------------------- measure_binary

def test_measure_binary_direct_projection():
    out = qcore.measure_binary(probe_direction(), state(0, 1, 0, 0, 0))
    assert out.click_prob == pytest.approx(0.5, abs=1e-15)
    assert out.survive_prob == pytest.approx(0.5, abs=1e-15)
    assert np.allclose(out.post_survive_state.amplitudes,
                       np.array([0, 1, -1, 0, 0]) / SQ2, atol=1e-14)


def test_measure_binary_orthogonal_state_passes_through():
    psi = state(1, 0, 0, 0, 0)
    out = qcore.measure_binary(probe_direction(), psi)
    assert out.click_prob == 0.0
    assert np.allclose(out.post_survive_state.amplitudes, psi.amplitudes, atol=1e-15)


def test_measure_binary_first_probe_click_probability():
    # Closed-form 2x2-block oracle for the evolved candidate state.
    for _ in range(50):
        delta = RNG.uniform(1e-4, 0.3)
        bd = RNG.uniform(0.0, 0.9)
        dt = RNG.uniform(0.05, 3.0)
        a = math.sqrt(1 - bd**2)
        spec = HamiltonianSpec(RNG.normal(), RNG.normal(), delta)
        psi = qcore.evolve(spec, dt, state(a, 0, 0, 0, bd))
        out = qcore.measure_binary(probe_direction(), psi)
        assert out.click_prob == pytest.approx(
            oracles.first_click_closed_form(a, delta, dt), abs=1e-12)


def test_measure_binary_branch_reconstruction():
    # Branch vectors weighted by sqrt probabilities recompose the input,
    # and the matching rank-one mixture recomposes its density matrix.
    for _ in range(200):
        psi = PureState(oracles.random_pure_state(RNG))
        m = MeasurementDirection(oracles.random_pure_state(RNG))
        out = qcore.measure_binary(m, psi)
        assert out.click_prob + out.survive_prob == pytest.approx(1.0, abs=1e-15)
        recon = (math.sqrt(out.click_prob) * out.post_click_state.amplitudes
                 + math.sqrt(out.survive_prob) * out.post_survive_state.amplitudes)
        assert np.max(np.abs(recon - psi.amplitudes)) <= 1e-12
        rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
        assert np.max(np.abs(np.outer(recon, recon.conj()) - rho)) <= 1e-12


def test_measure_binary_survive_branch_is_idempotent():
    for _ in range(50):
        psi = PureState(oracles.random_pure_state(RNG))
        m = MeasurementDirection(oracles.random_pure_state(RNG))
        again = qcore.measure_binary(m, qcore.measure_binary(m, psi).post_survive_state)
        assert again.click_prob <= 1e-24


def test_measure_binary_degenerate_branch_raises():
    # Exactly representable direction so the survive branch underflows to 0.
    m = MeasurementDirection(np.array([1, 0, 0, 0, 0], dtype=np.complex128))
    with pytest.raises(DegenerateBranchError):
        qcore.measure_binary(m, state(1, 0, 0, 0, 0))


def test_measure_binary_dimension_mismatch():
    m = MeasurementDirection(np.array([1.0, 0.0], dtype=np.complex128))
    with pytest.raises(ValidationError):
        qcore.measure_binary(m, state(1, 0, 0, 0, 0))


@settings(max_examples=60, deadline=None)
@given(theta=st.floats(0, 2 * math.pi))
def test_probabilities_are_phase_insensitive(theta):
    base = oracles.random_pure_state(np.random.default_rng(7))
    psi = PureState(base)
    rotated = PureState(np.exp(1j * theta) * base)
    m = probe_direction()
    out0 = qcore.measure_binary(m, psi)
    out1 = qcore.measure_binary(m, rotated)
    assert abs(out0.click_prob - out1.click_prob) <= 1e-14
    assert abs(out0.survive_prob - out1.survive_prob) <= 1e-14


# ------------------------------------------------------ overlap, normalize

def test_inner_product_magnitude_invariant_under_joint_evolution():
    spec = HamiltonianSpec(0.3, 1.1, 0.6)
    phi = PureState(oracles.random_pure_state(RNG))
    psi = PureState(oracles.random_pure_state(RNG))
    before = abs(np.vdot(phi.amplitudes, psi.amplitudes))
    after = abs(np.vdot(qcore.evolve(spec, 1.3, phi).amplitudes,
                        qcore.evolve(spec, 1.3, psi).amplitudes))
    assert after == pytest.approx(before, abs=1e-13)


def test_normalize_examples():
    out = qcore.normalize([2, 0, 0, 0, 0])
    assert np.allclose(out.amplitudes, [1, 0, 0, 0, 0], atol=1e-15)
    out = qcore.normalize([1, 1, 0, 0, 0])
    assert np.allclose(out.amplitudes, np.array([1, 1, 0, 0, 0]) / SQ2, atol=1e-15)


def test_normalize_rejects_near_zero():
    with pytest.raises(DegenerateVectorError):
        qcore.normalize(np.zeros(5))

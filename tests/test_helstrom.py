import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from zenodisc import ValidationError, helstrom

import oracles

RNG = np.random.default_rng(31415)


# ------------------------------------------------------------ pure states
# A pure pair with overlap magnitude c has transition probability T = c^2.

def test_helstrom_pure_orthogonal_is_free():
    for prior in (0.0, 0.3, 0.5, 1.0):
        assert helstrom.helstrom_cost(prior, 0.0, 1.0) == 0.0


def test_helstrom_pure_identical_states_cost_half():
    assert helstrom.helstrom_cost(0.5, 1.0, 0.0) == pytest.approx(0.5, abs=1e-15)


def test_helstrom_pure_three_four_five():
    # overlap 0.6 at even prior: (1 - sqrt(1 - 0.36)) / 2 = 0.1
    assert helstrom.helstrom_cost(0.5, 0.6**2, 0.8**2) == pytest.approx(0.1, abs=1e-14)


def test_helstrom_cost_validates_inputs():
    with pytest.raises(ValidationError):
        helstrom.helstrom_cost(1.2, 0.5, 0.5)
    with pytest.raises(ValidationError):
        helstrom.helstrom_cost(0.5, 1.5, -0.5)
    with pytest.raises(ValidationError, match="sum to 1"):
        helstrom.helstrom_cost(0.5, 0.3, 0.3)


@settings(max_examples=100, deadline=None)
@given(xi=st.floats(0, 1), t1=st.floats(0, 1), t2=st.floats(0, 1))
def test_helstrom_cost_monotone_and_bounded(xi, t1, t2):
    lo, hi = sorted((t1, t2))
    assert helstrom.helstrom_cost(xi, lo, 1.0 - lo) <= helstrom.helstrom_cost(xi, hi, 1.0 - hi) + 1e-15
    assert helstrom.helstrom_cost(xi, hi, 1.0 - hi) <= helstrom.guess_only_cost(xi) + 1e-15


@settings(max_examples=100, deadline=None)
@given(xi=st.floats(0, 1), t=st.floats(0, 1))
def test_helstrom_cost_prior_symmetry(xi, t):
    assert helstrom.helstrom_cost(xi, t, 1.0 - t) == pytest.approx(
        helstrom.helstrom_cost(1.0 - xi, t, 1.0 - t), abs=1e-15)


def test_helstrom_cost_free_at_certain_prior():
    for t in (0.0, 0.4, 1.0):
        assert helstrom.helstrom_cost(0.0, t, 1.0 - t) == 0.0
        assert helstrom.helstrom_cost(1.0, t, 1.0 - t) == 0.0


# ------------------------------------------------------------ mixed states
# The trace-norm route is an oracle; these examples check it on its own.

def test_helstrom_mixed_identical_inputs():
    rho = np.diag([0.5, 0.5, 0, 0, 0]).astype(np.complex128)
    for prior in (0.2, 0.5, 0.9):
        assert oracles.helstrom_trace_norm(rho, rho, prior) == pytest.approx(
            min(prior, 1 - prior), abs=1e-12)


def test_helstrom_mixed_orthogonal_pure():
    rho0 = np.diag([1, 0, 0, 0, 0]).astype(np.complex128)
    rho1 = np.diag([0, 1, 0, 0, 0]).astype(np.complex128)
    assert oracles.helstrom_trace_norm(rho0, rho1, 0.3) == pytest.approx(0.0, abs=1e-14)


def test_helstrom_mixed_agrees_with_pure_formula():
    # Cross-formula oracle: trace-norm route vs closed form on 1000 pairs.
    worst = 0.0
    for _ in range(1000):
        psi0 = oracles.random_pure_state(RNG)
        psi1 = oracles.random_pure_state(RNG)
        prior = RNG.uniform()
        mixed = oracles.helstrom_trace_norm(oracles.density(psi0), oracles.density(psi1), prior)
        pure = helstrom.helstrom_cost(prior, abs(np.vdot(psi0, psi1)) ** 2,
                                      oracles.gram_complement(psi0, psi1))
        worst = max(worst, abs(mixed - pure))
    assert worst <= 1e-12


def test_guess_only_cost_examples():
    assert helstrom.guess_only_cost(0.5) == 0.5
    assert helstrom.guess_only_cost(0.0) == 0.0
    assert helstrom.guess_only_cost(0.3) == pytest.approx(0.3, abs=1e-15)


@settings(max_examples=150, deadline=None)
@given(xi=st.floats(0.0, 1.0), p0=st.floats(0.0, 1.0), p1=st.floats(0.0, 1.0))
def test_expected_posterior_guess_cost_never_exceeds_prior_guess_cost(xi, p0, p1):
    # Averaging min(post, 1 - post) over the event and its complement can
    # never beat waiting: information never hurts.
    expected = 0.0
    for q0, q1 in ((p0, p1), (1.0 - p0, 1.0 - p1)):
        marginal = xi * q0 + (1.0 - xi) * q1
        if marginal > 0.0:
            post = xi * q0 / marginal
            expected += marginal * min(post, 1.0 - post)
    assert expected <= helstrom.guess_only_cost(xi) + 1e-12


# ------------------------------------------------------------ arrays
# T or 1 - T up to 1e-12 outside [0, 1] (the clip edges), and [0, 1] itself.
EDGE_T = st.floats(0.0, 1.0) | st.floats(-1e-12, 0.0) | st.floats(1.0, 1.0 + 1e-12)
PRIORS = st.sampled_from((0.0, 1.0)) | st.floats(0.0, 1.0)
ANY = st.floats(allow_nan=True, allow_infinity=True)


@st.composite
def pure_pairs(draw, priors=PRIORS, edges=EDGE_T):
    """(prior, T, 1 - T) with one of T and 1 - T at an edge and the other its complement,
    exact or off by up to 2e-12, so some entries leave the admitted range."""
    edge = draw(edges)
    other = 1.0 - edge + draw(st.just(0.0) | st.floats(-2e-12, 2e-12))
    t, rest = (edge, other) if draw(st.booleans()) else (other, edge)
    return draw(priors), t, rest


def _priced(entries):
    """The float call of each entry that it accepts."""
    valid = []
    for entry in entries:
        try:
            valid.append((entry, helstrom.helstrom_cost(*entry)))
        except ValidationError:
            pass
    return valid


def _bits(values):
    return [float(v).hex() for v in values]


# Each array entry is the float call on it bit for bit, the prior as an array or one float.
@settings(max_examples=150, deadline=None)
@given(st.lists(pure_pairs(), min_size=1, max_size=20), st.booleans())
@example([(0.3, -0.0, 1.0), (0.3, 1e-12 - 1e-12, 1.0)], False)  # a T of -0 clips to 0
@example([(0.0, 0.5, 0.5), (1.0, 1.0 + 1e-12, -1e-12)], False)
def test_helstrom_cost_of_arrays_is_the_float_call_of_each_entry(entries, one_prior):
    if one_prior:
        entries = [(entries[0][0], t, rest) for _, t, rest in entries]
    valid = _priced(entries)
    assume(valid)
    prior, t, rest = (np.array(column) for column in zip(*(entry for entry, _ in valid)))
    got = helstrom.helstrom_cost(valid[0][0][0] if one_prior else prior, t, rest)
    assert _bits(got.tolist()) == _bits(cost for _, cost in valid)


@settings(max_examples=100, deadline=None)
@given(st.lists(PRIORS, min_size=1, max_size=20))
def test_guess_only_cost_of_an_array_is_the_float_call_of_each_entry(priors):
    got = helstrom.guess_only_cost(np.array(priors))
    assert _bits(got.tolist()) == _bits(map(helstrom.guess_only_cost, priors))


_CHECKS = ("prior must", "transition probability must", "complement must", "T = ")


def _first_failure(call, entries):
    """What ``call`` raises over arrays of ``entries``, as ``_reject`` documents it: the message
    of the first check that fails anywhere, from the first entry where it fails. That entry's
    float call raises it, since every earlier check holds everywhere."""
    failures = []
    for i, entry in enumerate(entries):
        try:
            call(*entry)
        except ValidationError as err:
            failures.append((next(c for c, s in enumerate(_CHECKS) if str(err).startswith(s)), i, str(err)))
    return min(failures)[2] if failures else None


@settings(max_examples=150, deadline=None)
@given(st.lists(pure_pairs(priors=PRIORS | ANY, edges=EDGE_T | ANY), min_size=1, max_size=10))
@example([(0.5, 0.5, 0.5), (2.0, 0.3, 0.3), (0.5, 1.5, -0.5)])
@example([(0.0, 1.0, 0.0), (0.0, -math.inf, math.inf)])  # no sum of inf and -inf, no warning
def test_an_invalid_array_raises_the_first_failing_check_of_its_first_failing_entry(entries):
    want = _first_failure(helstrom.helstrom_cost, entries)
    assume(want is not None)
    with pytest.raises(ValidationError) as err:
        helstrom.helstrom_cost(*(np.array(column) for column in zip(*entries)))
    assert str(err.value) == want


@settings(max_examples=100, deadline=None)
@given(st.lists(PRIORS | ANY, min_size=1, max_size=10))
def test_an_invalid_prior_array_raises_at_its_first_failing_entry(priors):
    want = _first_failure(helstrom.guess_only_cost, [(p,) for p in priors])
    assume(want is not None)
    with pytest.raises(ValidationError) as err:
        helstrom.guess_only_cost(np.array(priors))
    assert str(err.value) == want

"""Property tests of the outcome tree over random valid parameters.

Each property must hold on the whole valid domain, not only the fixture:
pricing one tree under the other ledger is a run under that ledger, the
charged leaves sum to the closed-form total, the tree agrees with the
independent dense-exponential walk of the oracles, the exact ledger never
beats the Helstrom floor, the paper total is half the click mass, the leaf
masses sum to one, relabelling the hypotheses at an even prior matches the
oracle walk from the swapped pair, swapping the prior for its complement
leaves the total unchanged, and many close probes at a fixed total time
meet the Misra-Sudarshan limit. The oracle comparisons run up to k = 200,
the others up to k = 10^4. Rounding bounds count one rounding per leaf:
(k + 1) eps, or 2 (k + 1) eps where two sums meet.
"""

import dataclasses
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zenodisc import protocol
from zenodisc.protocol import Mode, ProtocolParams

import oracles

EPS = 2.0 ** -52
# Slack of the Helstrom floor: relative, for the rounding of the total. The
# Helstrom form cancels at neither end, so no absolute slack is needed even
# where 4 xi (1 - xi) T is tiny.
FLOOR_REL = 1e-12
# Absolute bound of the agreement with oracles.naive_run, as in
# tests/test_protocol.py::test_run_matches_independent_walk.
ORACLE_ABS = 1e-12
K_MAX = 10**4
ORACLE_K_MAX = 200


@st.composite
def valid_params(draw, mode=st.sampled_from(Mode), prior=st.floats(0.0, 1.0), k_max=K_MAX):
    delta = draw(st.floats(1e-4, 0.2))
    bd = draw(st.floats(0.0, 0.9))
    return ProtocolParams.from_b(
        bd / delta, delta, draw(st.integers(1, k_max)), dt=draw(st.floats(0.05, 3.0)),
        prior=draw(prior), mode=draw(mode))


def _other(mode: Mode) -> Mode:
    return Mode.PAPER if mode is Mode.EXACT else Mode.EXACT


# The ledger's numbers are properties of the report, not fields, so they are
# compared by name next to the stored fields.
LEDGER_VIEWS = ("total_cost", "verdict_vs_exact", "verdict_vs_paper", "paper_new_cost", "leaves")


@settings(max_examples=60, deadline=None)
@given(valid_params())
def test_pricing_a_walk_equals_running_that_ledger(p):
    priced = protocol.price(protocol.run(p), _other(p.mode))
    ran = protocol.run(dataclasses.replace(p, mode=_other(p.mode)))
    for name in (*(f.name for f in dataclasses.fields(ran)), *LEDGER_VIEWS):
        if name == "survived_pair":
            for got, want in zip(priced.survived_pair, ran.survived_pair):
                assert np.array_equal(got.amplitudes, want.amplitudes)
        else:
            assert getattr(priced, name) == getattr(ran, name), name


# The leaves that `zenodisc run` prints sum to the total it prints.
@settings(max_examples=60, deadline=None)
@given(valid_params())
def test_leaves_sum_to_the_total(p):
    report = protocol.run(p)
    resum = math.fsum(leaf.marginal * leaf.leaf_cost for leaf in report.leaves)
    assert abs(resum - report.total_cost) <= (p.k + 1) * EPS


# The oracle walk has level energies as inputs and the package does not, so
# drawing them shows that they change no reported number.
@settings(max_examples=60, deadline=None)
@given(valid_params(k_max=ORACLE_K_MAX), st.floats(-2.0, 3.0), st.floats(-2.0, 3.0))
def test_walk_agrees_with_the_oracle_walk(p, e0, e1):
    report = protocol.run(p)
    ref = oracles.naive_run(p.b, p.delta, p.k, p.dt, e0, e1, p.prior,
                            paper_ledger=p.mode is Mode.PAPER)
    assert abs(report.total_cost - ref["total"]) <= ORACLE_ABS
    assert abs(report.final_overlap - ref["final_overlap"]) <= ORACLE_ABS
    assert len(report.leaves) == len(ref["leaf_p0"])
    for leaf, q0, q1 in zip(report.leaves, ref["leaf_p0"], ref["leaf_p1"]):
        assert abs(leaf.p_given_h0 - q0) <= ORACLE_ABS
        assert abs(leaf.p_given_h1 - q1) <= ORACLE_ABS


@settings(max_examples=60, deadline=None)
@given(valid_params(mode=st.just(Mode.EXACT)))
# A nearly certain prior: 4 xi (1 - xi) T is tiny.
@example(ProtocolParams.from_b(10 / 3, 0.1875, 1, dt=3.0, prior=1.0 - 1.1e-16))
def test_exact_ledger_never_beats_the_helstrom_floor(p):
    report = protocol.run(p)
    assert report.total_cost >= report.baseline_exact * (1.0 - FLOOR_REL)


@settings(max_examples=60, deadline=None)
@given(valid_params(mode=st.just(Mode.PAPER)))
def test_paper_total_is_half_the_click_mass(p):
    report = protocol.run(p)
    survived = report.leaves[-1].marginal
    assert abs(report.total_cost - (1.0 - survived) / 2.0) <= (p.k + 1) * EPS


@settings(max_examples=60, deadline=None)
@given(valid_params())
def test_leaf_masses_sum_to_one(p):
    leaves = protocol.run(p).leaves
    for mass in (math.fsum(leaf.marginal for leaf in leaves),
                 math.fsum(leaf.p_given_h0 for leaf in leaves),
                 math.fsum(leaf.p_given_h1 for leaf in leaves)):
        assert abs(mass - 1.0) <= 2 * (p.k + 1) * EPS


# Relabelling the hypotheses at an even prior swaps the start pair; the
# package has no start argument, so the oracle walk runs from the swapped pair.
@settings(max_examples=60, deadline=None)
@given(valid_params(prior=st.just(0.5), k_max=ORACLE_K_MAX), st.floats(-2.0, 3.0),
       st.floats(-2.0, 3.0))
# b = 0: the survived pair is nearly parallel, O_k -> 1.
@example(ProtocolParams(a=1.0, b=0.0, delta=0.1875, dt=3.0, k=61), 1.0, 1.0)
def test_relabelling_the_hypotheses_keeps_the_total_at_an_even_prior(p, e0, e1):
    swapped = oracles.candidate_pair(p.b, p.delta)[::-1]
    ref = oracles.naive_run(p.b, p.delta, p.k, p.dt, e0, e1, p.prior,
                            paper_ledger=p.mode is Mode.PAPER, start=swapped)
    assert abs(protocol.run(p).total_cost - ref["total"]) <= ORACLE_ABS


# Relabelling the hypotheses turns prior xi into 1 - xi, and the mirror
# symmetry maps the relabelled pair back onto the original one.
@settings(max_examples=60, deadline=None)
@given(valid_params())
def test_swapping_the_prior_keeps_the_total(p):
    forward = protocol.run(p).total_cost
    swapped = protocol.run(dataclasses.replace(p, prior=1.0 - p.prior)).total_cost
    assert abs(forward - swapped) <= (p.k + 1) * EPS


# Many close probes at fixed total time T = k dt (Misra and Sudarshan):
# k (1 - P(survive)) -> a^2 delta^2 T^2 / 2 up to O((delta T)^2), with the
# bound of tests/test_protocol.py::test_run_zeno_regime_keeps_leaf_mass_and_meets_the_limit.
# delta T >= 2e-3 and b delta <= 0.5 keep the limit's relative bound above
# the rounding of P(survive), which k scales up.
@settings(max_examples=60, deadline=None)
@given(st.floats(1e-3, 1e-2), st.floats(0.0, 0.5), st.floats(2.0, 3.0), st.integers(1, K_MAX))
def test_many_close_probes_meet_the_zeno_limit(delta, bd, total_time, k):
    p = ProtocolParams.from_b(bd / delta, delta, k, dt=total_time / k)
    report = protocol.run(p)
    limit = p.a**2 * delta**2 * total_time**2 / 2.0
    got = k * (1.0 - report.leaves[-1].marginal)
    assert abs(got - limit) <= (delta * total_time) ** 2 * limit

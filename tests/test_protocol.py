import math
import tracemalloc

import numpy as np
import pytest

from zenodisc import ValidationError, protocol
from zenodisc.cli import parse_config, run_sweep
from zenodisc.protocol import Mode, ProtocolParams

import oracles

RNG = np.random.default_rng(99_173)


def random_params(rng, mode=Mode.EXACT, prior=None, k_max=8
                  ) -> tuple[ProtocolParams, tuple[float, float]]:
    """Random valid params, and random level energies (e0, e1) for the oracle
    walk: the package has no such input, so each oracle comparison also shows
    that they change nothing."""
    delta = rng.uniform(1e-4, 0.2)
    bd = rng.uniform(0.0, 0.9)
    k = int(rng.integers(1, k_max + 1))
    dt = rng.uniform(0.1, 3.0)
    energies = (rng.uniform(-2, 3), rng.uniform(-2, 3))
    p = ProtocolParams.from_b(
        b=bd / delta, delta=delta, k=k, dt=dt,
        prior=rng.uniform(0.05, 0.95) if prior is None else prior,
        mode=mode,
    )
    return p, energies


# ----------------------------------------------------------- construction

def test_params_validation():
    with pytest.raises(ValidationError):
        ProtocolParams(a=1.0, b=1.0, delta=0.5, dt=1.0, k=1)  # normalization broken
    with pytest.raises(ValidationError):
        ProtocolParams(a=1.0, b=0.0, delta=0.0, dt=0.0, k=1)  # dt must be positive
    with pytest.raises(ValidationError):
        ProtocolParams(a=1.0, b=0.0, delta=0.0, dt=1.0, k=0)  # k too small
    with pytest.raises(ValidationError):
        ProtocolParams(a=1.0, b=0.0, delta=-0.1, dt=1.0, k=1)  # negative delta
    with pytest.raises(ValidationError):
        ProtocolParams(a=1.0, b=0.0, delta=0.0, dt=1.0, k=1, prior=1.5)
    with pytest.raises(ValidationError, match="must be finite"):
        ProtocolParams(a=1.0, b=0.0, delta=1e200, dt=1e200, k=1)  # delta dt overflows
    with pytest.raises(ValidationError, match="^mode must be a Mode, got 'exact'$"):
        ProtocolParams(a=1.0, b=0.0, delta=0.0, dt=1.0, k=1, mode="exact")


def test_params_validate_on_every_way_they_are_built():
    # A namedtuple's own _make, which _replace calls, builds through tuple.__new__ and so
    # would skip the checks of ProtocolParams.__new__.
    p = ProtocolParams.from_b(10.0, 0.01, k=5, dt=1.0)
    builds = {
        "constructor": lambda: ProtocolParams(p.a, p.b, p.delta, -1.0, p.k),
        "from_b": lambda: ProtocolParams.from_b(p.b, p.delta, p.k, dt=-1.0),
        "from_a": lambda: ProtocolParams.from_a(p.a, p.delta, p.k, dt=-1.0),
        "_make": lambda: ProtocolParams._make([p.a, p.b, p.delta, -1.0, p.k, p.prior, p.mode]),
        "_replace": lambda: p._replace(dt=-1.0),
    }
    for name, build in builds.items():
        with pytest.raises(ValidationError, match=r"^dt must be positive, got -1\.0$"):
            build()
    with pytest.raises(ValidationError, match="^mode must be a Mode, got 'paper'$"):
        p._replace(mode="paper")
    assert type(ProtocolParams._make(p)) is ProtocolParams and ProtocolParams._make(p) == p
    assert p._replace(prior=0.25) == (*p[:5], 0.25, p.mode)


def test_params_hash_and_compare_by_value():
    p = ProtocolParams.from_b(10.0, 0.01, k=5, dt=1.0)
    q = ProtocolParams.from_b(10.0, 0.01, k=5, dt=1.0)
    assert p is not q
    assert p == q and hash(p) == hash(q)
    assert len({p, q}) == 1
    assert p != p._replace(mode=Mode.PAPER)


def test_from_b_normalizes():
    p = ProtocolParams.from_b(10.0, 0.01, k=5, dt=1.0)
    assert p.a == pytest.approx(math.sqrt(0.99), abs=1e-15)
    assert p.a**2 + (p.b * p.delta) ** 2 == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValidationError):
        ProtocolParams.from_b(10.0, 0.2, k=1, dt=1.0)  # b*delta > 1


def test_from_a_derives_b():
    p = ProtocolParams.from_a(math.sqrt(0.99), 0.01, k=2, dt=0.5)
    assert p.b == pytest.approx(10.0, abs=1e-10)
    p = ProtocolParams.from_a(1.0, 0.0, k=1, dt=1.0)
    assert p.b == 0.0


# ------------------------------------------------------ solve_orthogonality

def test_solve_orthogonality_fixture_value():
    # Frozen from b / (2 k a) with a = sqrt(0.99).
    dt = protocol.solve_orthogonality(math.sqrt(0.99), 10.0, 5)
    assert dt == pytest.approx(1.005037815259212, abs=1e-12)
    assert 2 * 5 * math.sqrt(0.99) * dt - 10.0 == pytest.approx(0.0, abs=1e-12)


def test_solve_orthogonality_trivia():
    assert protocol.solve_orthogonality(1.0, 2.0, 1) == 1.0
    assert protocol.solve_orthogonality(0.8, 4.0, 2) == pytest.approx(
        protocol.solve_orthogonality(0.8, 4.0, 1) / 2, abs=1e-15)


def test_solve_orthogonality_validation():
    with pytest.raises(ValidationError):
        protocol.solve_orthogonality(0.0, 1.0, 1)
    with pytest.raises(ValidationError):
        protocol.solve_orthogonality(1.0, 0.0, 1)
    with pytest.raises(ValidationError):
        protocol.solve_orthogonality(1.0, 1.0, 0)


def test_k_errors_echo_a_long_k_shortened():
    # Past 40 characters a k is echoed by its first 20 and its length, and past
    # Python's limit on the digits of int text by its size in bits.
    for k, shown in ((5 * 10**4000, "50000000000000000000... (4001 characters)"),
                     (10**5000, "<an int of 16610 bits>"), (0, "0"), ("5", "'5'")):
        for make in (lambda: ProtocolParams(a=1.0, b=0.0, delta=0.01, dt=1.0, k=k),
                     lambda: protocol.solve_orthogonality(0.9, 1.0, k)):
            with pytest.raises(ValidationError) as err:
                make()
            assert str(err.value).endswith(f"got {shown}") and len(str(err.value)) < 200
    # k (delta dt)^2 overflows at k = 10^300.
    with pytest.raises(ValidationError) as err:
        ProtocolParams(a=1.0, b=0.0, delta=0.01, dt=1e10, k=10**300)
    assert str(err.value).endswith("k=10000000000000000000... (301 characters)")
    assert len(str(err.value)) < 200


@pytest.mark.parametrize("amplitude", ["a", "b"])
def test_derive_points_of_empty_columns_is_empty(amplitude):
    points, errors = protocol.derive_points(amplitude, (), (), (), (), ())
    assert errors == []
    assert all(isinstance(column, np.ndarray) and column.shape == (0,) for column in points)


# ------------------------------------------------------------- first step
# A walk of k = 1: its first leaf is the click, its survived pair the
# renormalized null-outcome states.

def test_step_delta_zero_never_clicks_off_support():
    p = ProtocolParams(a=1.0, b=0.0, delta=0.0, dt=1.7, k=1)
    click, survived = protocol.run(p).leaves
    assert click.p_given_h0 == 0.0
    assert survived.p_given_h0 == 1.0


def test_step_click_probability_closed_form():
    for _ in range(50):
        p, _ = random_params(RNG, k_max=1)
        click = protocol.run(p).leaves[0].p_given_h0
        assert click == pytest.approx(
            oracles.first_click_closed_form(p.a, p.delta, p.dt), abs=1e-12)


def test_step_survivor_transverse_components():
    p = ProtocolParams.from_b(10.0, 1e-3, k=1, dt=1.0)
    survivor = protocol.run(p).survived
    expected = 0.5 * p.a * p.delta * p.dt
    for idx in (1, 2):
        assert abs(abs(survivor[idx]) - expected) <= 10 * p.delta**3
    assert abs(survivor[1]) == pytest.approx(abs(survivor[2]), abs=1e-15)


# -------------------------------------------------------------------- run

def test_run_matches_independent_walk():
    for _ in range(25):
        p, energies = random_params(RNG)
        report = protocol.run(p)
        ref = oracles.naive_run(p.b, p.delta, p.k, p.dt, *energies, p.prior)
        assert report.total_cost == pytest.approx(ref["total"], abs=1e-12)
        assert report.final_overlap == pytest.approx(ref["final_overlap"], abs=1e-12)
        for leaf, q0, q1 in zip(report.leaves, ref["leaf_p0"], ref["leaf_p1"]):
            assert leaf.p_given_h0 == pytest.approx(q0, abs=1e-12)
            assert leaf.p_given_h1 == pytest.approx(q1, abs=1e-12)


def test_run_paper_ledger_matches_independent_walk():
    p, energies = random_params(np.random.default_rng(5), mode=Mode.PAPER)
    report = protocol.run(p)
    ref = oracles.naive_run(p.b, p.delta, p.k, p.dt, *energies, p.prior, paper_ledger=True)
    assert report.total_cost == pytest.approx(ref["total"], abs=1e-12)


def test_run_matches_independent_walk_at_the_edges():
    # At delta dt = pi/2, sin^2(delta dt) rounds to 1 and log1p(-sin^2) is
    # -inf; at delta = 0 nothing clicks, so every click leaf has zero mass;
    # with cos(delta dt) < 0 and k odd, c^k in the survived pair is negative.
    edges = (ProtocolParams(a=1.0, b=0.0, delta=1.0, dt=math.pi / 2, k=4, prior=0.3),
             ProtocolParams(a=1.0, b=0.0, delta=0.0, dt=1.7, k=4, prior=0.3),
             ProtocolParams.from_b(2.0, 0.25, 5, dt=9.0, prior=0.3))
    assert math.sin(edges[0].delta * edges[0].dt) ** 2 == 1.0
    assert math.cos(edges[2].delta * edges[2].dt) < 0.0
    for p in edges:
        for mode in Mode:
            report = protocol.run(p._replace(mode=mode))
            ref = oracles.naive_run(p.b, p.delta, p.k, p.dt, xi=p.prior,
                                    paper_ledger=mode is Mode.PAPER)
            assert abs(report.total_cost - ref["total"]) <= 1e-12
            assert abs(report.final_overlap - ref["final_overlap"]) <= 1e-12
            assert len(report.leaves) == len(ref["leaf_p0"])
            for leaf, q0, q1 in zip(report.leaves, ref["leaf_p0"], ref["leaf_p1"]):
                assert abs(leaf.p_given_h0 - q0) <= 1e-12
                assert abs(leaf.p_given_h1 - q1) <= 1e-12
                assert all(math.isfinite(v) for v in (leaf.marginal, leaf.posterior,
                                                      leaf.leaf_cost))
            s = report.survived
            for got, want in zip((s, s[3::-1] + s[4:]), ref["survived_pair"], strict=True):
                assert np.max(np.abs(np.abs(got) - np.abs(want))) <= 1e-12


# The two ends where the Helstrom cost can lose its digits: a nearly certain
# prior makes 4 xi (1 - xi) T tiny, and b = 0 drives the survived pair
# towards parallel, where 1 - O_k^2 must not be rounded from O_k.
def test_exact_total_meets_the_floor_at_a_nearly_certain_prior():
    p = ProtocolParams.from_b(10 / 3, 0.1875, 1, dt=3.0, prior=1.0 - 1.1e-16)
    report = protocol.run(p)
    assert report.total_cost >= report.baseline_exact


# The package reads no level energies; each e1 gives an oracle rounding path
# on which (1 - sqrt(1 - x)) / 2 misses by more than 1e-12.
@pytest.mark.parametrize("k, e1", [(61, 1.0), (80, 2.0), (110, 2.0), (155, 2.0)])
def test_run_matches_independent_walk_for_a_near_parallel_survived_pair(k, e1):
    p = ProtocolParams(a=1.0, b=0.0, delta=0.1875, dt=3.0, k=k)
    report = protocol.run(p)
    ref = oracles.naive_run(p.b, p.delta, p.k, p.dt, 1.0, e1)
    assert 1.0 - report.final_overlap < 1e-8
    assert abs(report.total_cost - ref["total"]) <= 1e-12


def test_run_leaf_structure_and_conservation():
    p, _ = random_params(np.random.default_rng(11))
    report = protocol.run(p)
    assert len(report.leaves) == p.k + 1
    assert [leaf.kind for leaf in report.leaves] == ["click"] * p.k + ["survived"]
    assert [leaf.step for leaf in report.leaves] == list(range(1, p.k + 1)) + [None]
    assert math.fsum(l.p_given_h0 for l in report.leaves) == pytest.approx(1.0, abs=1e-10)
    assert math.fsum(l.p_given_h1 for l in report.leaves) == pytest.approx(1.0, abs=1e-10)
    for leaf in report.leaves:
        assert leaf.marginal == pytest.approx(
            p.prior * leaf.p_given_h0 + (1 - p.prior) * leaf.p_given_h1, abs=1e-12)
        assert -1e-15 <= leaf.leaf_cost <= min(leaf.posterior, 1 - leaf.posterior) + 1e-12
    assert report.total_cost == pytest.approx(
        math.fsum(l.marginal * l.leaf_cost for l in report.leaves), abs=1e-12)


def test_run_trajectories():
    p = ProtocolParams.from_b(10.0, 0.01, k=4, dt=0.8)
    report = protocol.run(p)
    assert len(report.overlap_trajectory) == p.k + 1
    assert len(report.survival_trajectory) == p.k + 1
    assert report.overlap_trajectory[0] == pytest.approx((p.b * p.delta) ** 2, abs=1e-12)
    assert report.survival_trajectory[0] == (1.0, 1.0)
    s0, s1 = zip(*report.survival_trajectory)
    assert all(x >= y - 1e-15 for x, y in zip(s0, s0[1:]))  # survival never grows
    assert report.final_overlap == report.overlap_trajectory[-1]


def test_run_symmetric_scenario_properties():
    # The mirrored candidate pair makes both hypotheses statistically
    # identical: posteriors stay at 1/2 and both ledgers charge clicks 1/2.
    p = ProtocolParams.from_b(10.0, 0.001, k=5)
    exact = protocol.run(p)
    paper = protocol.run(p._replace(mode=Mode.PAPER))
    for le, lp in zip(exact.leaves, paper.leaves):
        assert le.posterior == pytest.approx(0.5, abs=1e-12)
        if le.kind == "click":
            assert abs(le.leaf_cost - lp.leaf_cost) <= 1e-12
    t0, t1 = zip(*exact.survival_trajectory)
    assert np.allclose(t0, t1, atol=1e-14)


def test_run_hypothesis_swap_invariance_at_even_prior():
    # Relabelling the hypotheses swaps the start pair; the package has no
    # start argument, so the oracle walk runs from the swapped pair.
    p, energies = random_params(np.random.default_rng(17), prior=0.5)
    swapped = oracles.candidate_pair(p.b, p.delta)[::-1]
    forward = protocol.run(p)
    ref = oracles.naive_run(p.b, p.delta, p.k, p.dt, *energies, p.prior, start=swapped)
    assert abs(forward.total_cost - ref["total"]) <= 1e-12


def test_run_orthogonal_inputs_make_protocol_strictly_worse():
    # b = 0: free discrimination up front, so any clicking can only hurt.
    p = ProtocolParams(a=1.0, b=0.0, delta=0.05, dt=1.0, k=1)
    report = protocol.run(p)
    assert report.baseline_exact == 0.0
    assert report.total_cost > 0.0
    assert report.verdict_vs_exact > 0.0
    survived = report.leaves[-1]
    # Survived-leaf cost is fourth order in the transverse amplitude.
    bound = (0.5 * math.sin(0.05) ** 2) ** 2
    assert survived.leaf_cost <= bound
    click = report.leaves[0]
    assert click.leaf_cost == pytest.approx(0.5, abs=1e-12)


def test_run_paper_total_tracks_closed_form():
    p = ProtocolParams.from_b(10.0, 0.001, k=5, mode=Mode.PAPER)
    report = protocol.run(p)
    closed = protocol.total_cost_paper_mode(p)
    assert closed == pytest.approx(1.25e-6, abs=1e-18)  # frozen: b^2 delta^2 / (16 k)
    assert abs(report.total_cost - closed) <= p.delta**3


def test_run_zeno_regime_keeps_leaf_mass_and_meets_the_limit():
    # Many close probes at fixed total time T = k dt (Misra and Sudarshan):
    # k (1 - P(survive)) -> a^2 delta^2 T^2 / 2 up to O((delta T)^2). The
    # click probabilities are 1e-14 to 1e-13 here, so survival must not be carried
    # as a product of rounded (1 - click) factors.
    k, total_time = 10**4, 2.0
    for delta in (1e-3, 3e-3):
        p = ProtocolParams.from_b(10.0, delta, k, dt=total_time / k)
        report = protocol.run(p)
        mass = math.fsum(leaf.marginal for leaf in report.leaves)
        assert abs(mass - 1.0) <= 1e-14
        limit = p.a**2 * delta**2 * total_time**2 / 2.0
        got = k * (1.0 - report.leaves[-1].marginal)
        assert abs(got - limit) <= (delta * total_time) ** 2 * limit


# The per-step views list at most 10^6 steps, a fixed cap checked before any step
# is made, so the largest listable k does not depend on the host. run itself
# prices only the final step, as a sweep does, so only the per-step views fail.
@pytest.mark.parametrize("k", [10**6 + 1, 10**18, 2**63 - 2])
def test_run_rejects_a_k_past_the_step_cap(k):
    p = ProtocolParams.from_b(10.0, 0.01, k, dt=1e-12)
    report = protocol.run(p)
    tracemalloc.start()
    try:
        for view in ("survival", "overlap_trajectory", "survival_trajectory", "leaves"):
            with pytest.raises(ValidationError, match=f"^k = {k}: per-step values are listed for k up to 1000000$"):
                getattr(report, view)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    (row,) = run_sweep(parse_config(f"b=10\ndelta=0.01\ndt=1e-12\nk={k}\nmode=exact"))
    assert not row.error
    assert (report.total_cost, report.final_overlap, report.baseline_exact, report.baseline_paper) \
        == (row.total_cost, row.final_overlap, row.baseline_exact, row.baseline_paper)


def test_run_keeps_no_per_step_data():
    # At k = 10^6 the per-step values would take about 8 MB a column.
    p = ProtocolParams.from_b(10.0, 1e-3, 10**6, dt=2e-6)
    tracemalloc.start()
    try:
        for mode in Mode:
            protocol.run(p._replace(mode=mode))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_run_sanity_bounds_across_random_sets():
    rng = np.random.default_rng(4242)
    for _ in range(60):
        p, _ = random_params(rng)
        report = protocol.run(p)
        assert report.verdict_vs_exact >= 0.0
        assert report.total_cost <= min(p.prior, 1 - p.prior) + 1e-12


def test_total_cost_paper_mode_examples():
    p = ProtocolParams.from_b(10.0, 0.0, k=3, dt=1.0)
    assert protocol.total_cost_paper_mode(p) == 0.0
    p = ProtocolParams.from_b(10.0, 0.001, k=5)
    ratio = (p.a**2 * p.k**2 * p.dt**2 * p.delta**2) / protocol.total_cost_paper_mode(p)
    assert ratio == pytest.approx(4 * p.k, rel=1e-14)


# Points where the 50-digit reference once lost its answer: s^2 = 7e-59 rounds 1 - s^2
# to 1, so M_k came out 0 (total 1.4e-48 for 6.9e-43), and 4 xi (1 - xi) T = 7e-51
# cancelled in (1 - sqrt(1 - 4 xi (1 - xi) T)) / 2 (baseline_exact 5e-51 for 1.8e-51).
# Bound: relative, the 2e-15 that tests/test_results.py allows the headline.
@pytest.mark.parametrize("params", [
    ProtocolParams.from_b(5.648026001264611e-12, 0.3098146573206004, 102752303158226506,
                          dt=2.748369539010387e-29, prior=0.8136459464274),
    ProtocolParams.from_b(6.764433581618764e-08, 0.0030410911383329663, 181528,
                          dt=1.863192890798875e-13, prior=0.999999999999),
])
def test_decimal_reference_keeps_a_tiny_click_mass_and_helstrom_cost(params):
    report = protocol.run(params)
    ref = oracles.decimal_point(*protocol.normalised(params)[:2], params.delta, params.dt, params.k,
                                params.prior)
    got = {"final_overlap": report.final_overlap, "baseline_exact": report.baseline_exact,
           "baseline_paper": report.baseline_paper, "total_exact": report.total_cost,
           "total_paper": protocol.run(params._replace(mode=Mode.PAPER)).total_cost}
    for name, value in got.items():
        assert abs(value - float(ref[name])) <= 2e-15 * float(ref[name]), name

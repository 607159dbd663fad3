import csv
import io
import math
import random
import runpy
import tracemalloc
import warnings
from decimal import Decimal
from pathlib import Path

import pytest

from zenodisc import ValidationError, cli, protocol
from zenodisc.cli import parse_config, render_report, run_sweep
from zenodisc.protocol import Mode

import oracles

FIXTURE = """\
# headline fixture
b=10
delta=0.01,0.001
dt=auto
k=1,5,20
xi=0.5
mode=both
"""

# The headline study's sweep and scaling configs.
ADJUDICATE = runpy.run_path(str(Path(__file__).resolve().parent.parent / "scripts" / "adjudicate.py"))


def _count_walks(monkeypatch) -> list:
    """Record the params of every protocol.run call, whoever makes it."""
    walked = []
    run = protocol.run

    def counting_run(params):
        walked.append(params)
        return run(params)

    monkeypatch.setattr(protocol, "run", counting_run)
    return walked


# ---------------------------------------------------------------- parsing

def test_parse_config_grid_sizes():
    cfg = parse_config("delta=0.01,0.001\nk=1,5\nb=10\nxi=0.5\nmode=both")
    assert cfg.delta == (0.001, 0.01)
    assert cfg.k == (1, 5)
    assert cfg.amplitude == "b" and cfg.ab == (10.0,)
    assert cfg.modes == (Mode.EXACT, Mode.PAPER)
    assert len(run_sweep(cfg)) == 2 * 2 * 1 * 1 * 2  # 4 tuples, two ledgers


def test_parse_config_is_canonical():
    shuffled = parse_config("a=0.999,0.99\ndelta=0.01,0.001,0.1\ndt=1.0,0.5\nk=20,1,5\nxi=0.7,0.3")
    ordered = parse_config("a=0.99,0.999\ndelta=0.001,0.01,0.1\ndt=0.5,1.0\nk=1,5,20\nxi=0.3,0.7")
    assert shuffled == ordered
    assert parse_config("b=10\ndelta=0.01\ndt=auto").dt == (None,)
    assert parse_config("b=10\ndelta=0.01").dt == (None,)


def test_parse_config_auto_dt_solves_per_point():
    cfg = parse_config("b=10\ndelta=0.001\ndt=auto\nk=2\nxi=0.5")
    rows = run_sweep(cfg)
    assert len(rows) == 1
    row = rows[0]
    assert row.dt == pytest.approx(row.b / (2 * row.k * row.a), abs=1e-15)


def test_parse_config_errors_carry_line_numbers():
    with pytest.raises(ValidationError, match="line 2.*xi"):
        parse_config("b=10\nxi=1.5\ndelta=0.01")
    with pytest.raises(ValidationError, match="line 1.*unknown key"):
        parse_config("frobnicate=3\nb=10\ndelta=0.01")
    with pytest.raises(ValidationError, match="line 3.*key=value"):
        parse_config("b=10\ndelta=0.01\njusttext")
    with pytest.raises(ValidationError, match="line 2.*duplicate"):
        parse_config("b=10\nb=11\ndelta=0.01")
    with pytest.raises(ValidationError, match="empty value"):
        parse_config("b=10\ndelta=\nxi=0.5")
    with pytest.raises(ValidationError, match="^line 2: empty entry in grid for 'delta'$"):
        parse_config("b=10\ndelta=0.01,,0.02")
    for key, text in (("b", "delta=0.01\nxi=0.5\nb=nan"),
                      ("delta", "b=10\nxi=0.5\ndelta=0.01,inf"),
                      ("dt", "b=10\ndelta=0.01\ndt=0.5,inf")):
        with pytest.raises(ValidationError, match=f"line 3.*finite.*'{key}'"):
            parse_config(text)
    # The level energies are fixed; a config that sets them is refused.
    for key in ("e0", "e1"):
        with pytest.raises(ValidationError, match=f"line 3: key '{key}' has no effect"):
            parse_config(f"b=10\ndelta=0.01\n{key}=1.0")
    # Non-ASCII digits pass str.isdigit() but not int().
    for key in ("k", "digits"):
        with pytest.raises(ValidationError, match=f"line 3.*'{key}'"):
            parse_config(f"b=10\ndelta=0.01\n{key}=\u00b2")
    # A repeated grid value would be walked and reported twice.
    with pytest.raises(ValidationError, match="line 2.*delta=0.001 is repeated"):
        parse_config("b=10\ndelta=0.001,1e-3\nk=5,5\nmode=both")


def test_parse_config_parameterization_rules():
    with pytest.raises(ValidationError, match="exactly one of 'a' or 'b'"):
        parse_config("a=0.9\nb=10\ndelta=0.01")
    with pytest.raises(ValidationError, match="exactly one of 'a' or 'b'"):
        parse_config("delta=0.01")
    with pytest.raises(ValidationError, match="mix 'auto'"):
        parse_config("b=10\ndelta=0.01\ndt=auto,1.0")
    with pytest.raises(ValidationError, match="^missing required key 'delta'$"):
        parse_config("b=10\nk=5")


# ------------------------------------------------------------------ sweeps

def test_run_sweep_single_point_single_row():
    cfg = parse_config("b=10\ndelta=0.001\ndt=1.0\nk=3\nxi=0.5")
    rows = run_sweep(cfg)
    assert len(rows) == 1
    assert rows[0].mode == "exact"
    assert rows[0].error == ""


def test_run_sweep_records_failures_as_rows():
    # b * delta > 1 at the larger delta: that point fails, sweep continues.
    cfg = parse_config("b=10\ndelta=0.2,0.001\ndt=1.0\nk=1\nxi=0.5")
    rows = run_sweep(cfg)
    assert len(rows) == 2
    errors = [r for r in rows if r.error]
    assert len(errors) == 1
    assert "exceeds 1" in errors[0].error
    assert errors[0].delta == 0.2


def test_run_sweep_records_overflowing_points_as_rows():
    # delta^2 overflows at both points, and delta dt at the second.
    rows = run_sweep(parse_config("a=1\ndelta=1e200\ndt=1,1e200\nk=1"))
    assert [r.dt for r in rows] == [1.0, 1e200]
    assert all("must be finite" in r.error for r in rows)


def test_run_sweep_records_a_k_beyond_the_float_range_as_rows():
    # k (delta dt)^2 and the spacing b / (2 k a) cannot be formed in floats
    # at k = 5 * 10^400; the point is a row, the sweep goes on, and its error
    # echoes the k shortened.
    huge = 5 * 10**400
    for dt in ("0.5", "auto"):
        rows = run_sweep(parse_config(f"b=10\ndelta=0.01\ndt={dt}\nk=1,{huge}\nmode=both"))
        assert [(r.k, r.mode) for r in rows] == [(1, "exact"), (1, "paper"),
                                                 (huge, "exact"), (huge, "paper")]
        assert [bool(r.error) for r in rows] == [False, False, True, True]
        assert all(r.error.endswith("got 50000000000000000000... (401 characters)") for r in rows[2:])
        assert all(math.isfinite(r.total_cost) for r in rows[:2])


def test_run_sweep_evaluates_a_point_too_large_to_walk():
    # A sweep builds no per-step arrays, so k = 10^18 is evaluated next to the
    # failing b * delta > 1 points.
    rows = run_sweep(parse_config(
        "b=10\ndelta=0.2,0.01\ndt=1e-12\nk=5,1000000000000000000\nxi=0.5\nmode=both"))
    assert len(rows) == 8
    assert [r.delta for r in rows if r.error] == [0.2] * 4
    huge = [r for r in rows if r.k == 10**18 and not r.error]
    assert [r.mode for r in huge] == ["exact", "paper"]
    assert all(math.isfinite(r.total_cost) and math.isfinite(r.overlap_exponent) for r in huge)
    # k (delta dt)^2 = 1e-10, so the paper total meets its second-order value.
    assert huge[1].total_cost == pytest.approx(huge[1].paper_new_cost, rel=1e-9)


# The paper-mode value k (a delta dt)^2 / 4 is 2.5e297 here, where the product
# k a^2 dt^2 delta^2 overflowed to inf with a RuntimeWarning, which the suite makes an
# error. Bound against the 50-digit reference: the 2e-15 of tests/test_results.py.
PAPER_NEW_COST_CONFIG = f"b=10\ndelta=1e-6\ndt=1e5\nk={10**300}\nmode=paper\n"


def test_paper_new_cost_is_finite_where_its_product_overflowed(tmp_path, capsys):
    cfg_path = tmp_path / "paper_new_cost.cfg"
    cfg_path.write_text(PAPER_NEW_COST_CONFIG)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["sweep", "--config", str(cfg_path)]) == 0
        params, row = cli.optimize(parse_config(PAPER_NEW_COST_CONFIG), Mode.PAPER)
    out, err = capsys.readouterr()
    assert err == ""
    printed = float(next(csv.DictReader(io.StringIO(out)))["paper_new_cost"])
    want = oracles.decimal_point(*protocol.normalised(params)[:2], 1e-6, 1e5, 10**300, 0.5)["paper_new_cost"]
    assert abs(Decimal(printed) - want) <= Decimal("2e-15") * want
    assert row.paper_new_cost == printed and params.k == 10**300


def test_run_sweep_is_deterministic_and_sorted():
    cfg = parse_config(FIXTURE)
    rows1 = run_sweep(cfg)
    rows2 = run_sweep(cfg)
    assert rows1 == rows2
    keys = [(r.delta, r.dt, r.k, r.mode) for r in rows1]
    assert keys == sorted(keys)


def _count_fits(monkeypatch) -> list:
    """Record the residual columns of every series.fit_power_laws call."""
    fitted = []
    fit = cli.series.fit_power_laws

    def counting_fit(deltas, columns):
        fitted.append([tuple(column) for column in columns])
        return fit(deltas, columns)

    monkeypatch.setattr(cli.series, "fit_power_laws", counting_fit)
    return fitted


def test_run_sweep_walks_each_point_once(monkeypatch):
    # The 6 sweep points and their exponent grids are evaluated in one array
    # pass with no walk, and the final overlap depends on neither xi nor
    # delta, so one column serves each (b, auto dt, k): one batched fit of
    # 3 columns for 6 points.
    walked = _count_walks(monkeypatch)
    fitted = _count_fits(monkeypatch)
    rows = run_sweep(parse_config(ADJUDICATE["FIXTURE"]))
    monkeypatch.undo()
    assert len(rows) == 12 and not any(r.error for r in rows)
    assert walked == []
    assert len(fitted) == 1
    assert len(fitted[0]) == len(set(fitted[0])) == 3


def test_scaling_study_walks_each_delta_once(monkeypatch):
    # 3 templates (k = 1, 5, 20) times 3 deltas: each (template, delta) point is built
    # once and priced once, by one protocol.run report whose survived state is made once,
    # and every (template, quantity) column is fitted in one call.
    walked = _count_walks(monkeypatch)
    fitted = _count_fits(monkeypatch)
    survived, built = [], []
    survived_state = protocol.survived_state
    new = protocol.ProtocolParams.__new__

    def counting_survived_state(a, bd, x, k, survival):
        survived.append(k)
        return survived_state(a, bd, x, k, survival)

    def counting_new(cls, *args, **kwargs):
        built.append(new(cls, *args, **kwargs))
        return built[-1]

    monkeypatch.setattr(protocol, "survived_state", counting_survived_state)
    monkeypatch.setattr(protocol.ProtocolParams, "__new__", counting_new)
    fits = cli.scaling_study(parse_config(ADJUDICATE["SCALING"]), "all")
    monkeypatch.undo()
    assert len(fits) == 3 * len(cli.series.SCALING_QUANTITIES)
    assert len(fitted) == 1 and len(fitted[0]) == len(fits)
    assert len(walked) == len(set(walked)) == 9
    assert sorted(survived) == [1] * 3 + [5] * 3 + [20] * 3
    # The 3 templates, then each grid point once.
    assert len(built) == 3 + 9 and built[3:] == walked


def test_scaling_study_rejects_unknown_quantity():
    with pytest.raises(ValidationError, match="unknown scaling quantity"):
        cli.scaling_study(parse_config(ADJUDICATE["SCALING"]), "nonsense")


def test_run_sweep_fixture_paper_total_matches_reduction_identity():
    cfg = parse_config(FIXTURE)
    rows = run_sweep(cfg)
    target = [r for r in rows if r.mode == "paper" and r.k == 5 and r.delta == 0.001]
    assert len(target) == 1
    row = target[0]
    original = row.a**2 * row.k**2 * row.dt**2 * row.delta**2
    assert row.total_cost == pytest.approx(original / (4 * row.k), rel=1e-4)
    # Every exact row respects the optimality floor.
    for r in rows:
        if r.mode == "exact" and not r.error:
            assert r.verdict_vs_baseline_exact >= 0.0


# ------------------------------------------------------------------ output

def test_render_csv_shape():
    cfg = parse_config("b=10\ndelta=0.001\ndt=1.0\nk=1\nxi=0.5")
    text = render_report(run_sweep(cfg))[0]
    lines = text.split("\n")
    assert lines[0] == ",".join(cli.CSV_COLUMNS)
    assert len(lines) == 3 and lines[2] == ""  # header + row + trailing LF
    assert "\r" not in text


def test_render_summary_mentions_baselines_and_flags():
    cfg = parse_config(FIXTURE)
    text = render_report(run_sweep(cfg))[1]
    assert "baseline_exact" in text and "baseline_paper" in text
    assert "baseline exact/paper" in text
    assert "overlap_k_paper" in text and "survival_k_paper" in text
    assert "exact-ledger sanity" in text and "paper-ledger claim" in text


def test_emit_report_round_trips_bytes(tmp_path):
    cfg = parse_config("b=10\ndelta=0.01\ndt=auto\nk=2\nxi=0.5\nmode=both")
    rows = run_sweep(cfg)
    first = cli.emit_report(rows, str(tmp_path / "one"))
    second = cli.emit_report(rows, str(tmp_path / "two"))
    assert first[0].read_bytes() == second[0].read_bytes()
    assert first[1].read_bytes() == second[1].read_bytes()


def test_emit_report_rejects_no_rows(tmp_path):
    with pytest.raises(ValidationError) as info:
        cli.emit_report([], str(tmp_path / "empty"))
    assert str(info.value) == "no rows to report"
    assert list(tmp_path.iterdir()) == []


def test_emit_report_holds_neither_whole_text(tmp_path):
    # 1500 points, 3000 rows: the two files come to 1.8 MB. The rows are built
    # before tracing; the report of one point gives the cost of the open files.
    rows = run_sweep(parse_config(
        "b=10\ndelta=0.001,0.002,0.004\ndt=0.1,0.2,0.3,0.5,1\nk=1,2,3,5,8,13,21,34,55,89\n"
        "xi=0.05,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9\nmode=both"))
    one_point = rows[:2]

    def peak(report_rows) -> int:
        tracemalloc.start()
        try:
            cli.emit_report(report_rows, str(tmp_path / "report"))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert len(rows) == 3000
    assert peak(rows) - peak(one_point) < 64 * 1024


def test_sweep_streams_its_csv_and_holds_only_the_summary(tmp_path):
    # `zenodisc sweep` writes each CSV chunk as it is made and keeps the summary, which it
    # prints after the CSV: its peak is about that of making the rows and the summary alone.
    # Joining both whole texts peaked 1.3 MB higher here, 3.4 times the CSV's 0.38 MB.
    text = ("b=10\ndelta=0.001,0.002,0.004\ndt=0.1,0.2,0.3,0.5,1\nk=1,2,3,5,8,13,21,34,55,89\n"
            "xi=0.1,0.3,0.5,0.7,0.9\nmode=both\n")
    (tmp_path / "sweep.cfg").write_text(text, encoding="utf-8")
    (tmp_path / "warm.cfg").write_text("b=10\ndelta=0.01\n", encoding="utf-8")
    cfg = parse_config(text)

    def peak(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    args = ["sweep", "--config", str(tmp_path / "sweep.cfg"), "--out", str(tmp_path / "s"), "--quiet"]
    assert cli.main(["sweep", "--config", str(tmp_path / "warm.cfg"), "--quiet"]) == 0
    held = peak(lambda: [txt for _, txt in cli._report(run_sweep(cfg), cfg.digits)])
    streamed = peak(lambda: cli.main(args))
    assert streamed - held < (tmp_path / "s.csv").stat().st_size // 2


def test_run_lists_its_leaves_in_bounded_memory(tmp_path):
    # Each leaf's line is written to <out>.txt as it is made, so the peak of a run with
    # 10^4 leaves per ledger, 1.9 MB of text, is that of a run with 10: no listing is held.
    def peak(k: int) -> int:
        args = ["run", "--b", "10", "--delta", "0.001", "--dt", "2e-6", "--k", str(k),
                "--mode", "both", "--out", str(tmp_path / f"run{k}"), "--quiet"]
        tracemalloc.start()
        try:
            assert cli.main(args) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(10**4) - peak(10) < 64 * 1024
    text = (tmp_path / "run10000.txt").read_text(encoding="utf-8")
    assert text.count("\n  click ") == 2 * 10**4 and text.count("\n  survived ") == 2
    p = protocol.ProtocolParams.from_b(10.0, 0.001, 10, dt=2e-6)
    assert (tmp_path / "run10.txt").read_text(encoding="utf-8") == "\n".join(
        "".join(cli._render_run_report(protocol.run(p._replace(mode=mode)), 17)) for mode in Mode)


def test_render_scaling_csv_holds_no_record_buffer():
    # csv.writer grows its record buffer in steps of 32768 characters; the joined
    # text of the headline study's fits stays well below that.
    fits = cli.scaling_study(parse_config(ADJUDICATE["SCALING"]), "all")
    tracemalloc.start()
    try:
        text = cli.render_scaling_csv(fits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 4000
    assert peak < 32 * 1024


# ---------------------------------------------------------------- optimize

def test_optimize_prefers_large_k_under_cancellation_spacing():
    # With dt bound to b/(2ka), the idealized total scales as 1/k, so the
    # largest admitted k wins.
    cfg = parse_config("b=10\ndelta=0.001\ndt=auto\nk=" +
                       ",".join(str(i) for i in range(1, 21)) + "\nxi=0.5\nmode=paper")
    params, row = cli.optimize(cfg, Mode.PAPER)
    assert params.k == 20
    assert row.total_cost == pytest.approx((10 * 0.001) ** 2 / (16 * 20), rel=1e-3)


def test_optimize_single_point_returns_it():
    cfg = parse_config("b=10\ndelta=0.001\ndt=0.7\nk=4\nxi=0.5\nmode=exact")
    params, row = cli.optimize(cfg, Mode.EXACT)
    assert params.k == 4 and params.dt == 0.7
    assert row.verdict_vs_baseline_exact >= 0.0


def test_optimize_refines_dt_on_a_bracket(monkeypatch):
    # Idealized cost grows with both k and dt here, so the smallest corner
    # of the search region is optimal: the bracket holds no multiple of
    # pi / delta, and its low end has the larger |cos(delta dt)|.
    cfg = parse_config("b=10\ndelta=0.001\ndt=0.2,5.0\nk=1,2\nxi=0.5\nmode=paper")
    walked = _count_walks(monkeypatch)
    params, row = cli.optimize(cfg, Mode.PAPER)
    assert walked == []  # candidates are priced at their final step, not walked
    assert (params.k, params.dt) == (1, 0.2)
    grid_costs = [protocol.run(cli._point_params(cfg, 10.0, 0.001, dt, k, 0.5, Mode.PAPER)).total_cost
                  for dt in (0.2, 5.0) for k in (1, 2)]
    assert row.total_cost <= min(grid_costs) + 1e-18


def test_optimize_validates_grids():
    cfg = parse_config("b=10\ndelta=0.01,0.001\ndt=auto\nk=1\nxi=0.5")
    with pytest.raises(ValidationError, match="single value"):
        cli.optimize(cfg, Mode.EXACT)


def test_optimize_fits_the_exponent_of_its_optimum_only(monkeypatch):
    # One k and four dts, as in the zeno_deep workload: the candidates are priced without
    # an exponent, and one fit of one column gives the optimum's.
    cfg = parse_config("b=12\ndelta=0.002\ndt=0.02,0.027,0.031,0.04\nk=50\nxi=0.4\nmode=exact")
    fitted = _count_fits(monkeypatch)
    _, row = cli.optimize(cfg, Mode.EXACT)
    monkeypatch.undo()
    assert len(fitted) == 1 and len(fitted[0]) == 1
    assert row.overlap_exponent is not None


def test_main_optimize_renders_its_row_in_one_pass(tmp_path, monkeypatch, capsys):
    # --out and stdout share one rendering pass of the optimum's row; its files are
    # those emit_report writes for that row.
    text = "b=10\ndelta=0.001\ndt=auto\nk=1,5,20\nxi=0.5\nmode=exact\n"
    (tmp_path / "optimize.cfg").write_text(text)
    passes, report = [], cli._report
    monkeypatch.setattr(cli, "_report", lambda rows, digits: passes.append(rows) or report(rows, digits))
    argv = ["optimize", "--config", str(tmp_path / "optimize.cfg"), "--out", str(tmp_path / "optimum")]
    assert cli.main(argv) == 0
    monkeypatch.undo()
    (row,) = passes[0]
    assert len(passes) == 1
    assert row == cli.optimize(parse_config(text), Mode.EXACT)[1]
    streamed = cli.emit_report([row], str(tmp_path / "streamed"))
    for suffix, path in zip((".csv", ".txt"), streamed):
        assert (tmp_path / f"optimum{suffix}").read_bytes() == path.read_bytes()
    out = capsys.readouterr().out
    assert out.startswith("optimum: k=20 ") and out.endswith(streamed[0].read_text())


def _sweep_of_the_optimum(cfg, params) -> list:
    """The rows of a one-point sweep at the optimum's (k, dt or auto)."""
    return run_sweep(cfg._replace(dt=cfg.dt if cfg.auto_dt else (params.dt,), k=(params.k,)))


@pytest.mark.parametrize("text", [
    # A bracket holding pi / delta, where the click mass is 0.
    "b=9.29364586521526\ndelta=0.08486942153990186\ndt=3.4382922089011885,41.81160238104807\n"
    "k=179\nxi=0.3556961698229455\nmode=exact",
    "b=10\ndelta=0.001\ndt=auto\nk=1,5,20\nxi=0.5\nmode=paper",
    "a=0.999\ndelta=0.01\ndt=0.5,2.0\nk=3,7\nxi=0.3\nmode=exact",
])
def test_optimize_row_is_the_sweep_row_of_its_point(text):
    cfg = parse_config(text)
    params, row = cli.optimize(cfg, cfg.modes[0])
    assert row.overlap_exponent is not None
    assert _sweep_of_the_optimum(cfg, params) == [row]


@pytest.mark.parametrize("text", [
    # b max(DEFAULT_DELTAS) = 1 exactly: a = 0 at the fit grid's largest delta.
    "b=100\ndelta=0.001\ndt=0.5,1.5\nk=2\nxi=0.5\nmode=exact",
    # k (delta dt)^2 overflows at the fit grid's delta 1e-2, just above the point's,
    # where a^2 is small enough that the paper-mode value k (a delta dt)^2 / 4 stays finite.
    "b=99.9999\ndelta=0.0099999\ndt=1.3407908489465765e+153\nk=1000000\nxi=0.5\nmode=exact",
])
def test_optimize_and_sweep_give_no_exponent_off_the_fit_grid(text):
    cfg = parse_config(text)
    params, row = cli.optimize(cfg, cfg.modes[0])
    assert row.overlap_exponent is None
    assert _sweep_of_the_optimum(cfg, params) == [row]


# ------------------------------------------------------------ main / exits

def test_main_baseline_prints_both_conventions(capsys):
    code = cli.main(["baseline", "--b", "10", "--delta", "0.01", "--xi", "0.5"])
    out = capsys.readouterr().out
    assert code == 0
    values = {}
    for line in out.strip().splitlines():
        key, _, val = line.partition("=")
        values[key.strip()] = float(val)
    assert values["baseline_paper"] == pytest.approx(0.0025062814466900174, abs=1e-16)
    assert values["baseline_exact"] == pytest.approx(
        0.5 * (1 - math.sqrt(1 - 0.01**2)), abs=1e-15)
    assert values["guess_only_cost"] == 0.5


def test_main_baseline_prints_the_baselines_of_run(capsys):
    # Both subcommands price the baselines from the same normalised amplitudes.
    def baselines(argv):
        assert cli.main(argv) == 0
        return [line.split("=", 1)[1].strip() for line in capsys.readouterr().out.splitlines()
                if line.startswith("baseline_")]

    rng = random.Random(1)
    for i in range(400):
        delta = 10 ** rng.uniform(-3.0, -0.3)
        point = ["--delta", repr(delta), "--xi", repr(rng.random())]
        point += (["--a", repr(rng.uniform(0.3, 1.0))] if i % 2 else
                  ["--b", repr(rng.uniform(0.0, 0.95) / delta)])
        printed = baselines(["baseline", *point])
        assert len(printed) == 2
        assert printed == baselines(["run", *point, "--k", "1", "--dt", "1.0"])


def test_main_run_both_modes(capsys):
    code = cli.main(["run", "--b", "10", "--delta", "0.001", "--k", "3",
                     "--dt", "auto", "--xi", "0.5", "--mode", "both"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("total_cost") == 2
    assert "mode=exact" in out and "mode=paper" in out


def test_main_sweep_writes_files(tmp_path, capsys):
    cfg_path = tmp_path / "fix.cfg"
    cfg_path.write_text(FIXTURE)
    out_prefix = tmp_path / "res"
    code = cli.main(["sweep", "--config", str(cfg_path), "--out", str(out_prefix), "--quiet"])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert (tmp_path / "res.csv").exists() and (tmp_path / "res.txt").exists()


def test_main_scaling_reports_exponents(tmp_path, capsys):
    cfg_path = tmp_path / "scal.cfg"
    cfg_path.write_text("b=10\ndelta=0.01,0.0031622776601683794,0.001\ndt=auto\nk=5\nxi=0.5\n")
    code = cli.main(["scaling", "--config", str(cfg_path), "--quantity", "final_overlap"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("quantity,")
    fields = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert fields["quantity"] == "final_overlap"
    assert 1.8 <= float(fields["exponent"]) <= 2.2
    assert fields["flag"] == "overlap_k_paper"  # verbatim-formula marker


def test_main_scaling_rejects_short_grid(tmp_path, capsys):
    cfg_path = tmp_path / "scal.cfg"
    cfg_path.write_text("b=10\ndelta=0.01,0.001\ndt=auto\nk=5\nxi=0.5\n")
    code = cli.main(["scaling", "--config", str(cfg_path)])
    assert code == 1
    assert "at least 3" in capsys.readouterr().err


def test_main_scaling_reports_an_overflowing_series_form(tmp_path, capsys):
    # (1 - a^2 delta^2 dt^2 / 2)^(-k/2) of k_step_state overflows at this valid
    # point; the study stops with a validation error naming the quantity and
    # the point, whichever quantities it fits.
    cfg_path = tmp_path / "overflow.cfg"
    cfg_path.write_text("b=1\ndelta=0.1,0.03,0.01\ndt=1\nk=10000000\n")
    for quantity in ("all", "k_step_state"):
        assert cli.main(["scaling", "--config", str(cfg_path), "--quantity", quantity]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: k_step_state overflows at b=1.0, delta=0.1, dt=1.0, k=10000000")
    # The other quantities of the same point are finite.
    assert cli.main(["scaling", "--config", str(cfg_path), "--quantity", "survival_k"]) == 0
    capsys.readouterr()


def test_k_step_state_overflow_is_a_validation_error():
    template = protocol.ProtocolParams.from_b(1.0, 0.1, 10**7, dt=1.0)
    with pytest.raises(ValidationError, match="k_step_state overflows at .*k=10000000"):
        cli.series.scaling_fits(["k_step_state"], (0.1, 0.03, 0.01), [template])
    # k (k + 1) / 4 overflows too once the prefactor rounds to 1 (dt = auto).
    huge = protocol.ProtocolParams.from_b(10.0, 0.01, 10**200)
    with pytest.raises(ValidationError, match="k_step_state overflows"):
        cli.series.scaling_fits(["k_step_state"], cli.series.DEFAULT_DELTAS, [huge], auto_dt=True)


def test_main_rejects_an_integer_past_the_digit_limit(tmp_path, capsys):
    # int() reads at most 4300 digits from text; the value is echoed shortened.
    k = "5" + "0" * 5000
    for command, text in (("sweep", "b=10\ndelta=0.01\ndt=auto\nk=1,{k}\nmode=both\n"),
                          ("scaling", "b=10\ndelta=0.01,0.0031622776601683794,0.001\ndt=auto\nk=1,{k}\n")):
        cfg_path = tmp_path / f"{command}.cfg"
        cfg_path.write_text(text.format(k=k))
        assert cli.main([command, "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line 4: '50000000000000000000...") and "too many digits for 'k'" in err
        assert len(err) < 200
    assert cli.main(["run", "--b", "10", "--delta", "0.01", "--k", k]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: '50000000000000000000...") and len(err) < 200


def test_errors_echo_an_overlong_value_shortened(tmp_path, capsys):
    # Any value is echoed as an integer is: its first 20 characters and its length.
    long = "x" * 3000
    for text, why in ((f"b=10\ndelta=0.01\nmode={long}", "mode must be exact, paper, or both, got"),
                      (f"b=10\ndelta=0.01\n{long}=3", "unknown key"),
                      (f"b=10\ndelta=0.01\n{long}", "expected key=value, got")):
        with pytest.raises(ValidationError) as err:
            parse_config(text)
        assert str(err.value) == f"line 3: {why} '{long[:20]}... (3000 characters)'"
    for argv in (["run", "--b", "10", "--delta", "0.01", "--k", "5", "--mode", long],
                 ["scaling", "--config", str(tmp_path / "scaling.cfg"), "--quantity", long]):
        (tmp_path / "scaling.cfg").write_text("b=10\ndelta=0.01,0.0031622776601683794,0.001\nk=1\n")
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert f"'{long[:20]}... (3000 characters)'" in err and len(err) < 300  # with the options
    for raw, why in (("1" + "0" * 5000, "is not a finite number for 'delta'"),
                     ("0." + "1" * 5000 + "x", "is not a number for 'delta'")):
        shown = f"'{raw[:20]}... ({len(raw)} characters)' {why}"
        cfg_path = tmp_path / "float.cfg"
        cfg_path.write_text(f"b=10\ndelta=0.01,{raw}\ndt=auto\nk=1\n")
        assert cli.main(["sweep", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: line 2: {shown}") and len(err) < 200
        assert cli.main(["run", "--b", "10", "--delta", raw, "--k", "5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {shown}") and len(err) < 200


def test_main_validation_failures_exit_one(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("b=10\nxi=1.5\ndelta=0.01\n")
    assert cli.main(["sweep", "--config", str(cfg_path)]) == 1
    assert "xi=1.5" in capsys.readouterr().err
    assert cli.main(["baseline", "--delta", "0.01"]) == 1  # neither a nor b
    capsys.readouterr()
    # baseline derives (a, b) as run does, so it rejects the pairs run rejects.
    assert cli.main(["baseline", "--a", "0.5", "--delta", "0"]) == 1
    assert "delta = 0 requires a = 1" in capsys.readouterr().err
    assert cli.main(["baseline", "--b", "200", "--delta", "0.01"]) == 1
    assert "|b*delta| = 2.0 exceeds 1" in capsys.readouterr().err
    # Finite inputs whose phase delta dt or squares overflow.
    for point in (["--a", "1", "--delta", "1e200", "--dt", "1e200"],
                  ["--b", "10", "--delta", "1e-3", "--dt", "1e300"],
                  ["--a", "1", "--delta", "1e-160", "--dt", "1e160"]):
        assert cli.main(["run", *point, "--k", "1"]) == 1
        assert "must be finite" in capsys.readouterr().err
    # A k past the cap on the per-step views; a sweep evaluates it.
    assert cli.main(["run", "--b", "10", "--delta", "0.01", "--dt", "1e-12", "--k", str(10**18)]) == 1
    assert capsys.readouterr().err == \
        "error: k = 1000000000000000000: per-step values are listed for k up to 1000000\n"
    # A k beyond the float range, with explicit and with auto dt.
    for dt in ("0.5", "auto"):
        assert cli.main(["run", "--b", "10", "--delta", "0.01", "--dt", dt, "--k", "5" + "0" * 400]) == 1
        assert capsys.readouterr().err.startswith("error: ")
    for flags, message in ((["--dt", "0.5,1.0", "--k", "5"], "run requires a single dt (or auto)"),
                           (["--dt", "0.5", "--k", "5,7"], "run requires a single k")):
        assert cli.main(["run", "--b", "10", "--delta", "0.01", *flags]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
    assert cli.main(["nonsense"]) == 1


def test_main_rejects_flags_that_change_nothing(capsys):
    # No baseline depends on k or dt, no reported number on e0 or e1, and no number that
    # baseline or scaling prints on the ledger. The flag is rejected before a file is read.
    for argv in (["baseline", "--b", "10", "--delta", "0.01", "--k", "5"],
                 ["baseline", "--b", "10", "--delta", "0.01", "--dt", "0.5"],
                 ["run", "--b", "10", "--delta", "0.001", "--k", "1", "--e0", "1.0"],
                 ["baseline", "--b", "10", "--delta", "0.01", "--mode", "paper"],
                 ["scaling", "--config", "missing.cfg", "--mode", "paper"]):
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: unrecognized arguments: ") and err.count("\n") == 1


def _main_output(argv, capsys):
    code = cli.main(argv)
    return code, *capsys.readouterr()


def test_main_flags_replace_config_keys(tmp_path, monkeypatch, capsys):
    # A flag replaces the config key of its name; the file's value is not read.
    monkeypatch.chdir(tmp_path)
    Path("c.cfg").write_text("b=10\ndelta=0.01\nk=3\n")
    flagged = _main_output(["run", "--config", "c.cfg", "--k", "7"], capsys)
    assert flagged == _main_output(["run", "--b", "10", "--delta", "0.01", "--k", "7"], capsys)
    assert flagged[0] == 0 and " k=7 " in flagged[1]
    flagged = _main_output(["baseline", "--config", "c.cfg", "--b", "3"], capsys)
    assert flagged == _main_output(["baseline", "--b", "3", "--delta", "0.01"], capsys)
    assert flagged[0] == 0 and flagged[1] != _main_output(["baseline", "--config", "c.cfg"], capsys)[1]
    # a given as a flag over a file holding b: both keys are given.
    assert _main_output(["run", "--config", "c.cfg", "--a", "0.9"], capsys) == \
        (1, "", "error: exactly one of 'a' or 'b' must be given\n")
    # --mode over a file whose mode= would fail: each command that takes it runs.
    Path("bogus.cfg").write_text("b=10\ndelta=0.01\nmode=bogus\n")
    Path("paper.cfg").write_text("b=10\ndelta=0.01\nmode=paper\n")
    assert _main_output(["run", "--config", "bogus.cfg"], capsys)[2].startswith("error: line 3: mode must be")
    for command in ("run", "sweep", "optimize"):
        flagged = _main_output([command, "--config", "bogus.cfg", "--mode", "paper"], capsys)
        assert flagged == _main_output([command, "--config", "paper.cfg"], capsys)
        assert flagged[0] == 0 and flagged[2] == ""
    # A flag's value reads as a file's, which is stripped: ' auto' is auto.
    assert _main_output(["run", "--b", "10", "--delta", "0.01", "--dt", " auto"], capsys) == \
        _main_output(["run", "--b", "10", "--delta", "0.01", "--dt", "auto"], capsys)


def test_main_quiet_silences_stdout(capsys):
    code = cli.main(["baseline", "--b", "10", "--delta", "0.01", "--quiet"])
    assert code == 0
    assert capsys.readouterr().out == ""

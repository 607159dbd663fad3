"""Golden gate: the committed results/ must be what scripts/adjudicate.py writes.

The files are rebuilt in a temporary directory and compared field by field.
Headers and non-numeric fields must match exactly. Numbers are compared with
tolerances fixed by what rounding can move: headline totals and ratios to
1e-12 relative; scaling residuals to 1e-15 absolute; the fitted exponent and
intercept to 1e-4 and 1e-3, because at delta = 1e-3 the residuals sit within
a few hundred ulp of their O(1) operands and the log-log fit amplifies that.

Every number of the committed headline is also checked against a 50-digit
``decimal`` evaluation of its closed form (``oracles.decimal_point``).
"""

import csv
import io
import re
import runpy
from decimal import Decimal
from pathlib import Path

import oracles
from zenodisc import protocol, series

REPO = Path(__file__).resolve().parent.parent
RESULTS = REPO / "results"

HEADLINE_REL, HEADLINE_ABS = 1e-12, 1e-15
RESIDUAL_ABS = 1e-15
FIT_ABS = {"exponent": 1e-4, "intercept": 1e-3}
# Relative bound against the 50-digit reference, fixed before measuring; the
# committed headline sits within 3.3e-16 of it (baseline_exact; the overlap
# exponent, fitted in closed form, within 6.6e-17). The exact ledger's verdict against baseline_exact is
# M g(M), not a difference, and is held to the same bound relative to itself.
# Every other verdict is a difference of two such numbers, so it is bounded
# absolutely by the bound of its larger term.
DECIMAL_REL = Decimal("2e-15")

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _rebuild(tmp_path, monkeypatch, capsys) -> Path:
    main = runpy.run_path(str(REPO / "scripts" / "adjudicate.py"))["main"]
    monkeypatch.chdir(tmp_path)
    assert main() == 0
    capsys.readouterr()
    return tmp_path / "results"


def _close(got: str, want: str, rel: float, abs_tol: float) -> bool:
    g, w = float(got), float(want)
    return abs(g - w) <= rel * abs(w) + abs_tol


def _is_number(text: str) -> bool:
    return _NUMBER.fullmatch(text) is not None


def _rows(path: Path) -> list[list[str]]:
    return list(csv.reader(io.StringIO(path.read_text(encoding="utf-8"))))


def _check_field(where: str, got: str, want: str, rel: float, abs_tol: float) -> None:
    if _is_number(want) and _is_number(got):
        assert _close(got, want, rel, abs_tol), f"{where}: {got} vs committed {want}"
    else:
        assert got == want, f"{where}: {got!r} vs committed {want!r}"


def test_committed_results_match_a_rebuild(tmp_path, monkeypatch, capsys):
    built = _rebuild(tmp_path, monkeypatch, capsys)
    assert sorted(p.name for p in built.iterdir()) == sorted(p.name for p in RESULTS.iterdir())

    got_rows, want_rows = _rows(built / "headline.csv"), _rows(RESULTS / "headline.csv")
    assert len(got_rows) == len(want_rows) and got_rows[0] == want_rows[0]
    header = want_rows[0]
    for n, (got, want) in enumerate(zip(got_rows[1:], want_rows[1:]), start=2):
        assert len(got) == len(want)
        for col, g, w in zip(header, got, want):
            _check_field(f"headline.csv line {n} {col}", g, w, HEADLINE_REL, HEADLINE_ABS)

    got_lines = (built / "headline.txt").read_text(encoding="utf-8").splitlines()
    want_lines = (RESULTS / "headline.txt").read_text(encoding="utf-8").splitlines()
    assert len(got_lines) == len(want_lines)
    for n, (got, want) in enumerate(zip(got_lines, want_lines), start=1):
        assert _NUMBER.split(got) == _NUMBER.split(want), f"headline.txt line {n}"
        got_nums, want_nums = _NUMBER.findall(got), _NUMBER.findall(want)
        assert len(got_nums) == len(want_nums), f"headline.txt line {n}"
        for g, w in zip(got_nums, want_nums):
            _check_field(f"headline.txt line {n}", g, w, HEADLINE_REL, HEADLINE_ABS)

    got_rows, want_rows = _rows(built / "scaling.csv"), _rows(RESULTS / "scaling.csv")
    assert len(got_rows) == len(want_rows) and got_rows[0] == want_rows[0]
    header = want_rows[0]
    for n, (got, want) in enumerate(zip(got_rows[1:], want_rows[1:]), start=2):
        assert len(got) == len(want)
        for col, g, w in zip(header, got, want):
            where = f"scaling.csv line {n} {col}"
            if col in FIT_ABS:
                _check_field(where, g, w, 0.0, FIT_ABS[col])
            elif col == "residuals":
                gs, ws = g.split(";"), w.split(";")
                assert len(gs) == len(ws), where
                for gr, wr in zip(gs, ws):
                    _check_field(where, gr, wr, 0.0, RESIDUAL_ABS)
            else:
                assert g == w, f"{where}: {g!r} vs committed {w!r}"


def test_committed_headline_matches_the_decimal_reference():
    rows = list(csv.DictReader(io.StringIO((RESULTS / "headline.csv").read_text(encoding="utf-8"))))
    assert rows
    for n, row in enumerate(rows, start=2):
        a, b, delta, dt, k, xi = (float(row["a"]), float(row["b"]), float(row["delta"]),
                                  float(row["dt"]), int(row["k"]), float(row["xi"]))
        # The engine's normalised a and b delta are the reference's inputs.
        amplitudes = protocol.normalised(protocol.Points(a, b, delta, dt))[:2]
        ref = oracles.decimal_point(*amplitudes, delta, dt, k, xi)
        total = ref[f"total_{row['mode']}"]
        # The headline solves dt from the cancellation condition, per delta
        # of the overlap exponent's fit grid too (scripts/adjudicate.py).
        want = {"a": oracles.decimal_amplitude(b, delta), "dt": oracles.decimal_auto_dt(b, delta, k),
                "total_cost": total,
                "paper_new_cost": ref["paper_new_cost"], "final_overlap": ref["final_overlap"],
                "baseline_exact": ref["baseline_exact"], "baseline_paper": ref["baseline_paper"],
                "overlap_exponent": oracles.decimal_overlap_exponent(b, k, series.DEFAULT_DELTAS)}
        verdicts = {"verdict_vs_baseline_exact": "baseline_exact",
                    "verdict_vs_baseline_paper": "baseline_paper"}
        numeric = {col for col, text in row.items() if _is_number(text)}
        assert numeric == {"b", "delta", "k", "xi", *want, *verdicts}, f"line {n}"
        for col, w in want.items():
            assert abs(Decimal(row[col]) - w) <= DECIMAL_REL * abs(w), f"line {n} {col}: {row[col]}"
        for col, base in verdicts.items():
            want = total - ref[base]
            bound = DECIMAL_REL * (abs(want) if row["mode"] == "exact" and base == "baseline_exact"
                                   else max(abs(total), abs(ref[base])))
            assert abs(Decimal(row[col]) - want) <= bound, f"line {n} {col}: {row[col]}"

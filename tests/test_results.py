"""Golden gate: the committed results/ must be what scripts/adjudicate.py writes.

The files are rebuilt in a temporary directory and compared field by field.
Headers and non-numeric fields must match exactly. Numbers are compared with
tolerances fixed by what rounding can move: headline totals and ratios to
1e-12 relative; scaling residuals to 1e-15 absolute; the fitted exponent and
intercept to 1e-4 and 1e-3, because at delta = 1e-3 the residuals sit within
a few hundred ulp of their O(1) operands and the log-log fit amplifies that.
"""

import csv
import io
import re
import runpy
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
RESULTS = REPO / "results"

HEADLINE_REL, HEADLINE_ABS = 1e-12, 1e-15
RESIDUAL_ABS = 1e-15
FIT_ABS = {"exponent": 1e-4, "intercept": 1e-3}

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

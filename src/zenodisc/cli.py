"""Command-line driver: sweeps, optimization, scaling studies, report emission.

Config files are flat UTF-8 text, one ``key=value`` per line, ``#`` comments
allowed. Grid keys take comma-separated lists, which are read sorted and must
not repeat a value; exactly one of ``a`` or ``b`` must be present. ``dt`` is
either an explicit grid or the single literal ``auto``, which solves the
cancellation spacing b / (2 k a) per point.

    b=10            # or a=0.99,0.999
    delta=0.01,0.001
    dt=auto         # or dt=0.5,1.0
    k=1,5,20
    xi=0.5
    mode=both       # exact | paper | both
    digits=17       # significant digits printed, 6 to 17
    out=results/study

The keys ``e0`` and ``e1`` (the level energies, fixed at 1 and 2) are
rejected: they enter only phases, so no reported number depends on them.

Reports are a CSV (fixed header, LF endings) plus a plain-text adjudication
summary; identical configs produce byte-identical files. Numbers are printed
with 17 significant digits so fourth-order-in-delta differences survive a
round trip.

Exit codes: 0 success, 1 validation or i/o error.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from dataclasses import dataclass, fields, replace
from itertools import chain, compress, groupby, product
from operator import attrgetter, not_
from pathlib import Path

import numpy as np

from . import protocol, series
from .helstrom import guess_only_cost
from .protocol import Mode, ProtocolParams, shown
from .qcore import ValidationError

DEFAULT_DIGITS = 17

_GRID_KEYS = ("a", "b", "delta", "dt", "k", "xi")
_SCALAR_KEYS = ("mode", "digits", "out")
# The fixed level energies: no reported number depends on them.
_NO_EFFECT_KEYS = ("e0", "e1")

SCALING_COLUMNS = (
    "quantity", "b", "k", "xi", "dt_rule",
    "exponent", "intercept", "n_floored", "indeterminate", "flag",
    "deltas", "residuals",
)

@dataclass(frozen=True)
class SweepConfig:
    """Validated sweep definition; every grid is a sorted, repeat-free tuple,
    ``ab`` is the grid of ``amplitude`` ("a" or "b"), dt == (None,) means auto.
    """

    amplitude: str
    ab: tuple[float, ...]
    delta: tuple[float, ...]
    dt: tuple[float | None, ...]
    k: tuple[int, ...]
    xi: tuple[float, ...]
    modes: tuple[Mode, ...]
    digits: int = DEFAULT_DIGITS
    out: str | None = None

    @property
    def auto_dt(self) -> bool:
        return self.dt == (None,)


@dataclass(slots=True)
class ReportRow:
    """One protocol evaluation, or one failed point with its error message.

    A plain slotted record, built positionally: nothing hashes or mutates a row,
    and a frozen one costs several times as much to build.
    """

    a: float
    b: float
    delta: float
    dt: float
    k: int
    xi: float
    mode: str
    total_cost: float | None = None
    baseline_exact: float | None = None
    baseline_paper: float | None = None
    paper_new_cost: float | None = None
    final_overlap: float | None = None
    overlap_exponent: float | None = None
    verdict_vs_baseline_exact: float | None = None
    verdict_vs_baseline_paper: float | None = None
    error: str = ""


CSV_COLUMNS = tuple(field.name for field in fields(ReportRow))


def _where(lineno: int) -> str:
    return f"line {lineno}: " if lineno else ""


def _parse_float(raw: str, key: str, lineno: int) -> float:
    """Parse a float; a long value is echoed shortened."""
    try:
        val = float(raw)
    except ValueError:
        raise ValidationError(f"{_where(lineno)}'{shown(raw)}' is not a number for '{key}'") from None
    if not math.isfinite(val):
        raise ValidationError(f"{_where(lineno)}'{shown(raw)}' is not a finite number for '{key}'")
    return val


def _parse_grid(entry: tuple[str, int], key: str, ok, rule: str, parse=_parse_float) -> tuple:
    """Read a comma-separated grid with ``parse`` into a sorted, repeat-free tuple."""
    raw, lineno = entry
    vals = []
    for piece in raw.split(","):
        piece = piece.strip()
        if not piece:
            raise ValidationError(f"{_where(lineno)}empty entry in grid for '{key}'")
        vals.append(parse(piece, key, lineno))
    for v in vals:
        if not ok(v):
            raise ValidationError(f"{_where(lineno)}{key}={v} {rule}")
    vals.sort()
    for lo, hi in zip(vals, vals[1:]):
        if lo == hi:
            raise ValidationError(f"{_where(lineno)}{key}={lo} is repeated")
    return tuple(vals)


def _parse_int(raw: str, key: str, lineno: int) -> int:
    """Parse ASCII digits with an optional leading '+'; a long value is echoed shortened."""
    digits = raw[1:] if raw.startswith("+") else raw
    if not (digits.isascii() and digits.isdigit()):
        raise ValidationError(f"{_where(lineno)}'{shown(raw)}' is not a positive integer for '{key}'")
    try:
        return int(digits)
    except ValueError:  # past Python's limit on the digits of an int read from text
        raise ValidationError(f"{_where(lineno)}'{shown(raw)}' has too many digits for '{key}'") from None


def parse_config(text: str) -> SweepConfig:
    """Parse and validate the flat key=value sweep format."""
    seen: dict[str, tuple[str, int]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValidationError(f"line {lineno}: expected key=value, got '{shown(stripped)}'")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key in _NO_EFFECT_KEYS:
            raise ValidationError(f"line {lineno}: key '{key}' has no effect: the level "
                                  "energies enter only phases, so no number depends on them")
        if key not in _GRID_KEYS and key not in _SCALAR_KEYS:
            raise ValidationError(f"line {lineno}: unknown key '{shown(key)}'")
        if key in seen:
            raise ValidationError(f"line {lineno}: duplicate key '{key}'")
        if not raw:
            raise ValidationError(f"line {lineno}: empty value for '{key}'")
        seen[key] = (raw, lineno)
    return _build_config(seen)


def _build_config(seen: dict[str, tuple[str, int]]) -> SweepConfig:
    def take(key):
        return seen.pop(key, None)

    a_entry, b_entry = take("a"), take("b")
    if (a_entry is None) == (b_entry is None):
        raise ValidationError("exactly one of 'a' or 'b' must be given")
    if a_entry is not None:
        amplitude, ab = "a", _parse_grid(a_entry, "a", lambda v: 0.0 <= v <= 1.0, "outside [0, 1]")
    else:
        amplitude, ab = "b", _parse_grid(b_entry, "b", lambda v: v >= 0.0, "must be nonnegative")

    delta_entry = take("delta")
    if delta_entry is None:
        raise ValidationError("missing required key 'delta'")
    delta = _parse_grid(delta_entry, "delta", lambda v: v >= 0.0, "must be nonnegative")

    dt_entry = take("dt")
    dt: tuple[float | None, ...] = (None,)
    if dt_entry is not None and dt_entry[0] != "auto":
        if "auto" in (p.strip() for p in dt_entry[0].split(",")):
            raise ValidationError(f"{_where(dt_entry[1])}dt grid cannot mix 'auto' with numbers")
        dt = _parse_grid(dt_entry, "dt", lambda v: v > 0.0, "must be positive")

    k_entry = take("k")
    k_grid = (1,)
    if k_entry is not None:
        k_grid = _parse_grid(k_entry, "k", lambda v: v >= 1, "must be >= 1", parse=_parse_int)

    xi_entry = take("xi")
    xi = (0.5,)
    if xi_entry is not None:
        xi = _parse_grid(xi_entry, "xi", lambda v: 0.0 <= v <= 1.0, "outside [0, 1]")

    mode_entry = take("mode")
    modes = (Mode.EXACT,)
    if mode_entry is not None:
        modes = _parse_modes(mode_entry[0], lineno=mode_entry[1])

    digits_entry = take("digits")
    digits = DEFAULT_DIGITS
    if digits_entry is not None:
        digits = _parse_int(digits_entry[0], "digits", digits_entry[1])
        if not 6 <= digits <= 17:
            raise ValidationError(f"{_where(digits_entry[1])}digits must be an integer in [6, 17]")
    out_entry = take("out")
    out = out_entry[0] if out_entry is not None else None

    return SweepConfig(amplitude=amplitude, ab=ab, delta=delta, dt=dt, k=k_grid,
                       xi=xi, modes=modes, digits=digits, out=out)


def _parse_modes(raw: str, lineno: int = 0) -> tuple[Mode, ...]:
    name = raw.strip().lower()
    if name == "both":
        return (Mode.EXACT, Mode.PAPER)
    try:
        return (Mode(name),)
    except ValueError:
        raise ValidationError(f"{_where(lineno)}mode must be exact, paper, or both, got '{shown(raw)}'") from None


def _float_format(digits: int) -> str:
    """``%.<digits>g``, the one format of every printed float: the bytes of
    ``format(v, f".{digits}g")`` from one C-level ``%`` call."""
    return f"%.{digits}g"


def _fmt(value, num: str) -> str:
    """One cell: None empty, a float through the format ``num``, anything else by str."""
    if value is None:
        return ""
    if isinstance(value, float):
        return num % value
    return str(value)


def _point_params(config: SweepConfig, ab: float, delta: float, dt: float | None,
                  k: int, xi: float, mode: Mode) -> ProtocolParams:
    build = ProtocolParams.from_a if config.amplitude == "a" else ProtocolParams.from_b
    return build(ab, delta, k, dt=dt, prior=xi, mode=mode)


def _rows(columns, modes: tuple[Mode, ...], auto_dt: bool) -> list[ReportRow]:
    """The rows of valid points under each of ``modes``, from one :func:`protocol.tree`
    pass over their final step; ``columns`` holds the cells of the points, one sequence
    each for a, b, delta, dt, k and xi. The final overlap depends on neither xi nor delta,
    so one fit on the default delta grid, evaluated in the same pass, gives the overlap
    exponent of each (b, dt or auto, k); None where that grid leaves the valid range."""
    n, deltas = len(columns[0]), series.DEFAULT_DELTAS
    if not n:
        return []
    points = protocol.Points(*(np.array(column, float) for column in columns))
    _, b, _, dt, k, xi = columns
    keys = list(zip(b, (None,) * n if auto_dt else dt, k))
    # Each key whose b delta stays below 1 on the fit grid, with the prior of its first point.
    tried = {}
    for key, prior in zip(keys, xi):
        if key not in tried and key[0] * max(deltas) < 1.0:
            tried[key] = prior
    fitted, evaluated = [], points
    if tried:
        grid, errors = protocol.derive_points("b", *zip(*(
            (key_b, d, key_dt, key_k, prior) for (key_b, key_dt, key_k), prior in tried.items()
            for d in deltas)))
        valid = [not any(errors[j:j + len(deltas)]) for j in range(0, len(errors), len(deltas))]
        fitted = list(compress(tried, valid))
        if len(fitted) < len(tried):
            keep = np.repeat(valid, len(deltas))
            grid = protocol.Points(*(column[keep] for column in grid))
        evaluated = protocol.Points(*map(np.concatenate, zip(points, grid)))
    a, bd, x = protocol.normalised(evaluated)
    mass, survival, overlap, gap = protocol.tree(a, bd, x, evaluated.k)
    # The first n entries are the points, the rest the fit grids.
    fits = series.fit_power_laws(deltas, overlap[n:].reshape(-1, len(deltas)))
    exponents = {key: fit.exponent for key, fit in zip(fitted, fits)}
    final_overlap = overlap[:n]
    base_exact, base_paper = protocol.baselines(points.prior, a[:n], bd[:n])
    # The columns every ledger shares.
    shared = (*columns, base_exact.tolist(), base_paper.tolist(),
              protocol.total_cost_paper_mode(points).tolist(), final_overlap.tolist(),
              [exponents.get(key) for key in keys])
    rows = []
    for mode in modes:
        total = protocol.ledger(mode, points.prior, mass[:n], survival[:n], final_overlap, gap[:n])[2]
        rows += [ReportRow(a, b, delta, dt, k, xi, mode.value, t, be, bp, new, fo, exponent, ve, vp)
                 for a, b, delta, dt, k, xi, be, bp, new, fo, exponent, t, ve, vp
                 in zip(*shared, total.tolist(), (total - base_exact).tolist(),
                        (total - base_paper).tolist())]
    return rows


def _row_sort_key(row: ReportRow):
    def clean(x):
        return math.inf if x is None or (isinstance(x, float) and math.isnan(x)) else x

    return (clean(row.delta), clean(row.dt), row.k, clean(row.xi),
            clean(row.a), clean(row.b), row.mode)


def run_sweep(config: SweepConfig) -> list[ReportRow]:
    """Evaluate the Cartesian product of the config grids.

    The product is validated as columns (:func:`protocol.derive_points`), with the checks
    and messages of a per-point ``ProtocolParams``; a failing point becomes one row per
    ledger with a populated error column, and the sweep never aborts. The valid points are
    evaluated in one array pass with no per-step array (:func:`_rows`), with one exponent
    fit per (b, dt or auto, k): the final overlap depends on neither xi nor delta. Rows
    come back sorted by parameter tuple, so equal configs give identical row lists.
    """
    ab, delta, dt, k, xi = zip(*product(config.ab, config.delta, config.dt, config.k, config.xi))
    points, errors = protocol.derive_points(config.amplitude, ab, delta, dt, k, xi)
    # The cells of a valid point: the config's values, and the derived amplitude and dt.
    derived = (points.b if config.amplitude == "a" else points.a).tolist()
    a, b = (ab, derived) if config.amplitude == "a" else (derived, ab)
    dts = points.dt.tolist() if config.auto_dt else dt
    rows = []
    for i, error in enumerate(errors):
        if error:
            a_i, b_i = (ab[i], math.nan) if config.amplitude == "a" else (math.nan, ab[i])
            dt_i = math.nan if config.auto_dt else dt[i]
            rows += [ReportRow(a_i, b_i, delta[i], dt_i, k[i], xi[i], mode.value, error=error)
                     for mode in config.modes]
    columns = (a, b, delta, dts, k, xi)
    if any(errors):
        columns = [list(compress(column, map(not_, errors))) for column in columns]
    rows += _rows(columns, config.modes, config.auto_dt)
    rows.sort(key=lambda row: _row_sort_key(row) if row.error else _VALID_SORT_KEY(row))
    return rows


# The columns that name a row's parameter point, CSV_COLUMNS[:6].
_POINT = attrgetter("a", "b", "delta", "dt", "k", "xi")
# :func:`_row_sort_key` of a row with no error, whose key fields hold no None or NaN.
_VALID_SORT_KEY = attrgetter("delta", "dt", "k", "xi", "a", "b", "mode")


def _report(rows: list[ReportRow], digits: int):
    """The CSV and the summary of ``rows`` in one pass, as (CSV text, summary text) pairs:
    the two headers, then the CSV lines and the summary block of each parameter point.

    The rows of a point must be adjacent, one per ledger, as :func:`run_sweep` returns
    them, and share every column but mode, total_cost, the verdicts and error, as the
    ledgers of a point do. So each float is formatted once, with ``%.<digits>g``: a point's
    cells serve its CSV lines and its summary block, and a row adds only its total and
    verdicts. A parameter cell is formatted once per distinct value of its column. Valid
    rows need no quoting and are joined as text; the rows of a failed point go through
    ``csv.writer``, because an error message may need quoting.
    """
    num = _float_format(digits)
    # The text of each value met in each parameter column. A zero is keyed by its repr,
    # because 0.0 and -0.0 are equal keys and print as "0" and "-0".
    cells: list[dict] = [{} for _ in CSV_COLUMNS[:6]]
    flags = "".join(f"  {name}: {series.SUSPECT_FLAGS[name]}\n" for name in sorted(series.SUSPECT_FLAGS))
    yield (",".join(CSV_COLUMNS) + "\n",
           "adjudication summary\n====================\n"
           f"rows evaluated : {len(rows)}\n"
           f"parameter sets : {sum(1 for _ in groupby(rows, _POINT))}\n"
           "flagged series expressions (evaluated verbatim, never corrected):\n" + flags + "\n")
    quoted = io.StringIO()
    writer = csv.writer(quoted, lineterminator="\n")
    for idx, (_, group) in enumerate(groupby(rows, _POINT), start=1):
        group = list(group)
        first = group[0]
        point = []
        for memo, v in zip(cells, _POINT(first)):
            key = v or repr(v)
            text = memo.get(key)
            if text is None:
                text = memo[key] = _fmt(v, num)
            point.append(text)
        head = "set %d: a=%s b=%s delta=%s dt=%s k=%s xi=%s\n" % (idx, *point)
        if any(row.error for row in group):
            for row in group:
                writer.writerow(point + [_fmt(getattr(row, col), num) for col in CSV_COLUMNS[6:]])
            errors = sorted((row.mode, row.error) for row in group if row.error)
            yield quoted.getvalue(), head + "".join(f"  error[{m}]: {msg}\n" for m, msg in errors) + "\n"
            quoted.seek(0)
            quoted.truncate()
            continue
        prefix = ",".join(point)
        base_exact, base_paper, new_cost, final_overlap = (
            num % v for v in (first.baseline_exact, first.baseline_paper, first.paper_new_cost,
                              first.final_overlap))
        exponent = "" if first.overlap_exponent is None else num % first.overlap_exponent
        shared = f"{base_exact},{base_paper},{new_cost},{final_overlap},{exponent}"
        lines, by_mode = [], {}
        for row in group:
            total, margin = num % row.total_cost, num % row.verdict_vs_baseline_exact
            lines.append(f"{prefix},{row.mode},{total},{shared},{margin},"
                         f"{num % row.verdict_vs_baseline_paper},\n")
            by_mode[row.mode] = row, total, margin
        exact, paper = by_mode.get(Mode.EXACT.value), by_mode.get(Mode.PAPER.value)
        ratio = first.baseline_exact / first.baseline_paper if first.baseline_paper else math.nan
        block = [head,
                 f"  total_cost[exact]       = {exact[1] if exact else '(not run)'}\n",
                 f"  total_cost[paper]       = {paper[1] if paper else '(not run)'}\n",
                 f"  baseline_exact          = {base_exact}\n",
                 f"  baseline_paper          = {base_paper}\n",
                 f"  baseline exact/paper    = {num % ratio}\n",
                 f"  paper_new_cost          = {new_cost}\n",
                 f"  final_overlap           = {final_overlap}\n",
                 f"  overlap delta-exponent  = {exponent or '(not run)'}\n"]
        if exact:
            row, _, margin = exact
            ok = row.total_cost >= row.baseline_exact - 1e-10
            block.append(f"  exact-ledger sanity (total >= baseline_exact): "
                         f"{'holds' if ok else 'VIOLATED'}  margin={margin}\n")
        if paper:
            row = paper[0]
            ok = row.total_cost < row.baseline_paper
            ratio = row.total_cost / row.baseline_paper if row.baseline_paper else math.nan
            block.append(f"  paper-ledger claim (total < baseline_paper): "
                         f"{'holds' if ok else 'fails'}  ratio={num % ratio}\n")
        block.append("\n")
        yield "".join(lines), "".join(block)


def render_csv(rows: list[ReportRow], digits: int = DEFAULT_DIGITS) -> str:
    """The sweep CSV of ``rows``: the CSV half of the one rendering pass."""
    return "".join(text for text, _ in _report(rows, digits))


def render_summary(rows: list[ReportRow], digits: int = DEFAULT_DIGITS) -> str:
    """Human-readable adjudication of every parameter set in the sweep: the summary
    half of the one rendering pass, which also makes the CSV."""
    return "".join(text for _, text in _report(rows, digits))


def emit_report(rows: list[ReportRow], out: str, digits: int = DEFAULT_DIGITS
                ) -> tuple[Path, Path]:
    """Write <out>.csv and <out>.txt in one rendering pass, each point's text to its
    file as soon as it is made, so neither whole text is held; returns the two paths.
    The bytes are those of :func:`render_csv` and :func:`render_summary`."""
    if not rows:
        raise ValidationError("no rows to report")
    csv_path = Path(out + ".csv")
    txt_path = Path(out + ".txt")
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    with (open(csv_path, "w", encoding="utf-8", newline="") as csv_file,
          open(txt_path, "w", encoding="utf-8", newline="") as txt_file):
        for csv_text, txt_text in _report(rows, digits):
            csv_file.write(csv_text)
            txt_file.write(txt_text)
    return csv_path, txt_path


def scaling_study(config: SweepConfig, quantity: str = "all") -> list[dict]:
    """One power-law fit per quantity per non-delta parameter tuple.

    The config delta grid is the fit grid and needs at least 3 points over a
    decade. With an ``a`` grid, b is derived at the largest delta and then
    held fixed across the fit. The study is one :func:`series.scaling_fits` pass: one
    evaluation per grid point, one fit call. Indeterminate fits are flagged, not raised.
    """
    quantities = sorted(series.SCALING_QUANTITIES) if quantity == "all" else [quantity]
    flags = {q: series.quantity_flag(q) for q in quantities}  # rejects unknown names
    deltas = config.delta[::-1]
    templates = [_point_params(config, ab, deltas[0], dt, k, xi, Mode.EXACT)
                 for ab, dt, k, xi in product(config.ab, config.dt, config.k, config.xi)]
    fits = series.scaling_fits(quantities, deltas, templates, config.auto_dt)
    num = _float_format(config.digits)
    deltas_text = ";".join(num % d for d in deltas)  # every fit's sample_deltas
    return [{"quantity": q, "b": template.b, "k": template.k, "xi": template.prior,
             "dt_rule": "auto" if config.auto_dt else template.dt,
             "exponent": fit.exponent, "intercept": fit.intercept,
             "n_floored": fit.n_floored, "indeterminate": fit.indeterminate,
             "flag": flags[q],
             "deltas": deltas_text,
             "residuals": ";".join(num % r for r in fit.residuals)}
            for (template, q), fit in zip(product(templates, quantities), fits)]


def render_scaling_csv(rows: list[dict], digits: int = DEFAULT_DIGITS) -> str:
    """The scaling CSV of ``rows``, joined as text: no scaling cell holds a comma, a quote
    or a line break, so none needs quoting."""
    num = _float_format(digits)
    return "".join(chain([",".join(SCALING_COLUMNS) + "\n"],
                         (",".join([_fmt(row[col], num) for col in SCALING_COLUMNS]) + "\n"
                          for row in rows)))


def _golden_section(f, lo: float, hi: float, tol: float = 1e-10,
                    max_iter: int = 200) -> None:
    """Deterministic golden-section search of f inside (lo, hi).

    Nothing is returned: the caller keeps every evaluation and takes the best.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(max_iter):
        if hi - lo <= tol * max(1.0, abs(lo), abs(hi)):
            break
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = f(x2)


def optimize(config: SweepConfig, mode: Mode) -> tuple[ProtocolParams, ReportRow]:
    """Minimize the selected ledger's total cost over the free parameters.

    k is searched over its config grid; dt is golden-section refined inside
    [min, max] of its grid when that grid has more than one point, evaluated
    per grid point otherwise, and bound to the cancellation condition under
    dt=auto. All remaining grids must be singletons. Ties break toward
    smaller k, then smaller dt.
    """
    ab, delta, xi = _require_singletons(config, "optimize")
    # Every (k, dt) tried is priced once at its final step, as a sweep prices it, and
    # the least total is the optimum, whose row is priced as a sweep row. Each k's grid
    # dts are validated as a point; a, b delta and delta stay fixed, and every check on
    # dt is monotone in dt, so the trials inside a valid bracket are valid unbuilt.
    totals: dict[tuple[int, float], float] = {}
    built: dict[tuple[int, float], ProtocolParams] = {}

    def objective(k: int, dt: float) -> float:
        if (k, dt) not in totals:
            totals[k, dt] = protocol.final_total(mode, xi, a, bd, delta * dt, k)
        return totals[k, dt]

    for k in config.k:
        seeds = [_point_params(config, ab, delta, dt, k, xi, mode) for dt in config.dt]
        built.update(((k, p.dt), p) for p in seeds)
        a, bd, _ = protocol.normalised(seeds[0])
        for p in seeds:
            objective(k, p.dt)
        if len(config.dt) > 1:
            _golden_section(lambda dt: objective(k, dt), config.dt[0], config.dt[-1])
    _, k_best, dt_best = min((total, k, dt) for (k, dt), total in totals.items())
    params = built.get((k_best, dt_best)) or _point_params(config, ab, delta, dt_best, k_best, xi, mode)
    return params, _rows([(params.a,), (params.b,), (params.delta,), (params.dt,), (params.k,),
                          (params.prior,)], (mode,), config.auto_dt)[0]


def _render_run_report(report, digits: int) -> str:
    num = _float_format(digits)
    p = report.params
    head = (f"mode=%s a={num} b={num} delta={num} dt={num} k=%s xi={num}\n"
            f"total_cost       = {num}\n"
            f"baseline_exact   = {num}\n"
            f"baseline_paper   = {num}\n"
            f"paper_new_cost   = {num}\n"
            f"final_overlap    = {num}\n"
            f"verdict_vs_exact = {num}\n"
            f"verdict_vs_paper = {num}\n"
            "leaves (kind, step, p|h0, p|h1, marginal, posterior, cost):\n"
            ) % (p.mode.value, p.a, p.b, p.delta, p.dt, p.k, p.prior, report.total_cost,
                 report.baseline_exact, report.baseline_paper, report.paper_new_cost,
                 report.final_overlap, report.verdict_vs_exact, report.verdict_vs_paper)
    # A click leaf's three probabilities are one float, and every click leaf shares the
    # prior and the click cost: a cell's float is formatted only when its object differs
    # from the one above it, or else from the cell before it in the line.
    above, texts, lines = [None] * 5, [""] * 5, [head]
    for x in report.leaves:
        line = (x.p_given_h0, x.p_given_h1, x.marginal, x.posterior, x.leaf_cost)
        for i, v in enumerate(line):
            if v is not above[i]:
                above[i] = v
                texts[i] = texts[i - 1] if i and v is line[i - 1] else num % v
        lines.append("  %-8s %3s %s %s %s %s %s\n" % (x.kind, "-" if x.step is None else x.step, *texts))
    return "".join(lines)


# The point flags of baseline and run, each read as the config key of its name.
_POINT_FLAGS = ("a", "b", "delta", "xi", "dt", "k")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; keep 1 for validation
        raise ValidationError(message)


def _add_common(sub: argparse.ArgumentParser, point_flags: tuple[str, ...]):
    sub.add_argument("--config", help="path to a key=value config file")
    sub.add_argument("--out", help="output path prefix (.csv/.txt appended)")
    sub.add_argument("--mode", help="cost ledger: exact, paper or both (overrides config)")
    sub.add_argument("--quiet", action="store_true", help="suppress stdout")
    for key in point_flags:
        sub.add_argument(f"--{key}")


def _config_from_args(args) -> SweepConfig:
    if args.config is not None:
        text = Path(args.config).read_text(encoding="utf-8")
        cfg = parse_config(text)
    else:
        entries: dict[str, tuple[str, int]] = {}
        for key in _POINT_FLAGS:
            val = getattr(args, key, None)
            if val is not None:
                entries[key] = (val, 0)
        cfg = _build_config(entries)
    overrides = {}
    if args.mode is not None:
        overrides["modes"] = _parse_modes(args.mode)
    if args.out is not None:
        overrides["out"] = args.out
    return replace(cfg, **overrides) if overrides else cfg


def _require_singletons(cfg: SweepConfig, command: str) -> tuple[float, float, float]:
    for name, grid in (("a/b", cfg.ab), ("delta", cfg.delta), ("xi", cfg.xi)):
        if len(grid) != 1:
            raise ValidationError(f"{command} requires a single value for {name}")
    return cfg.ab[0], cfg.delta[0], cfg.xi[0]


def _emit(text: str, out: str | None, suffix: str, quiet: bool) -> int:
    """Write ``text`` to <out><suffix> when out is set, and to stdout unless quiet."""
    if out:
        path = Path(out + suffix)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8", newline="")
    if not quiet:
        sys.stdout.write(text)
    return 0


def _cmd_baseline(args) -> int:
    cfg = _config_from_args(args)
    ab, delta, xi = _require_singletons(cfg, "baseline")
    # dt and k enter neither baseline: any valid pair gives run's normalised amplitudes.
    params = _point_params(cfg, ab, delta, 1.0, 1, xi, Mode.EXACT)
    exact, paper = protocol.baselines(xi, *protocol.normalised(params)[:2])
    overlap, num = (params.b * delta) ** 2, _float_format(cfg.digits)
    text = (f"overlap |<psi0|psi1>|        = {num}\n"
            f"transition prob (standard)   = {num}\n"
            f"baseline_exact               = {num}\n"
            f"baseline_paper               = {num}\n"
            f"quadratic form b^2 delta^2/4 = {num}\n"
            f"guess_only_cost              = {num}\n"
            ) % (overlap, overlap ** 2, exact, paper, 0.25 * overlap, guess_only_cost(xi))
    return _emit(text, cfg.out, ".txt", args.quiet)


def _cmd_run(args) -> int:
    cfg = _config_from_args(args)
    ab, delta, xi = _require_singletons(cfg, "run")
    if len(cfg.dt) != 1:
        raise ValidationError("run requires a single dt (or auto)")
    if len(cfg.k) != 1:
        raise ValidationError("run requires a single k")
    params = _point_params(cfg, ab, delta, cfg.dt[0], cfg.k[0], xi, cfg.modes[0])
    report = protocol.run(params)
    text = "\n".join(_render_run_report(protocol.price(report, mode), cfg.digits)
                     for mode in cfg.modes)
    return _emit(text, cfg.out, ".txt", args.quiet)


def _cmd_sweep(args) -> int:
    cfg = _config_from_args(args)
    csv_text, txt_text = io.StringIO(), io.StringIO()
    for csv_piece, txt_piece in _report(run_sweep(cfg), cfg.digits):
        csv_text.write(csv_piece)
        txt_text.write(txt_piece)
    _emit(csv_text.getvalue(), cfg.out, ".csv", args.quiet)
    return _emit(txt_text.getvalue(), cfg.out, ".txt", args.quiet)


def _cmd_scaling(args) -> int:
    cfg = _config_from_args(args)
    rows = scaling_study(cfg, args.quantity)
    return _emit(render_scaling_csv(rows, cfg.digits), cfg.out, ".csv", args.quiet)


def _cmd_optimize(args) -> int:
    cfg = _config_from_args(args)
    if len(cfg.modes) != 1:
        raise ValidationError("optimize requires a single mode (exact or paper)")
    params, row = optimize(cfg, cfg.modes[0])
    num = _float_format(cfg.digits)
    text = f"optimum: k=%s dt={num} total_cost={num}\n" % (params.k, params.dt, row.total_cost)
    if cfg.out:
        emit_report([row], cfg.out, cfg.digits)
    if not args.quiet:
        sys.stdout.write(text)
        sys.stdout.write(render_csv([row], cfg.digits))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="zenodisc",
                     description="Exact laboratory for repeated-null-measurement state discrimination.")
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "baseline": (_cmd_baseline, ("a", "b", "delta", "xi"),
                     "print both Helstrom baselines for a candidate pair"),
        "run": (_cmd_run, _POINT_FLAGS, "evaluate one protocol configuration"),
        "sweep": (_cmd_sweep, (), "evaluate a parameter grid and emit CSV + summary"),
        "scaling": (_cmd_scaling, (), "fit delta-scaling exponents of series residuals"),
        "optimize": (_cmd_optimize, (), "search k and dt for the lowest total cost"),
    }
    for name, (handler, point_flags, help_text) in handlers.items():
        cmd = sub.add_parser(name, help=help_text)
        _add_common(cmd, point_flags=point_flags)
        if name == "scaling":
            cmd.add_argument("--quantity", default="all",
                             help="one of %s, or all" % ", ".join(sorted(series.SCALING_QUANTITIES)))
        cmd.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

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
Each flag of a command but ``--config``, ``--quiet`` and ``--quantity``
replaces the config key of its name, whose value in the file is not read.

Reports are a CSV (fixed header, LF endings) plus a plain-text adjudication
summary; identical configs produce byte-identical files. Numbers are printed
with 17 significant digits so fourth-order-in-delta differences survive a
round trip.

Exit codes: 0 success, 1 validation or i/o error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections import namedtuple
from itertools import chain, compress, groupby, product, repeat
from operator import attrgetter, not_

from . import protocol, series
from .helstrom import ValidationError, guess_only_cost
from .protocol import Mode, ProtocolParams, shown

DEFAULT_DIGITS = 17

_SCALAR_KEYS = ("mode", "digits", "out")
# The fixed level energies: no reported number depends on them.
_NO_EFFECT_KEYS = ("e0", "e1")

SCALING_COLUMNS = (
    "quantity", "b", "k", "xi", "dt_rule",
    "exponent", "intercept", "n_floored", "indeterminate", "flag",
    "deltas", "residuals",
)

class SweepConfig(namedtuple("SweepConfig", "amplitude ab delta dt k xi modes digits out",
                             defaults=(DEFAULT_DIGITS, None))):
    """Validated sweep definition; every grid is a sorted, repeat-free tuple,
    ``ab`` is the grid of ``amplitude`` ("a" or "b"), dt == (None,) means auto.
    """

    __slots__ = ()
    auto_dt = property(lambda self: self.dt == (None,))


ReportRow = namedtuple("ReportRow", "a b delta dt k xi mode total_cost baseline_exact baseline_paper "
                       "paper_new_cost final_overlap overlap_exponent verdict_vs_baseline_exact "
                       "verdict_vs_baseline_paper error", defaults=(None,) * 8 + ("",))
ReportRow.__doc__ = "One protocol evaluation, or one failed point with its error message."

CSV_COLUMNS = ReportRow._fields


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


def _parse_grid(entry: tuple[str, int], key: str, parse, ok, rule: str) -> tuple:
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


# Each grid key, in the order its errors are raised: its value reader, the rule of its values and
# the rule's text, and its default; a or b, and delta, must be given, and dt's (None,) is auto.
_GRIDS = {
    "a": (_parse_float, lambda v: 0.0 <= v <= 1.0, "outside [0, 1]", None),
    "b": (_parse_float, lambda v: v >= 0.0, "must be nonnegative", None),
    "delta": (_parse_float, lambda v: v >= 0.0, "must be nonnegative", None),
    "dt": (_parse_float, lambda v: v > 0.0, "must be positive", (None,)),
    "k": (_parse_int, lambda v: v >= 1, "must be >= 1", (1,)),
    "xi": (_parse_float, lambda v: 0.0 <= v <= 1.0, "outside [0, 1]", (0.5,)),
}


def _entries(text: str) -> dict[str, tuple[str, int]]:
    """The (raw value, line number) of each key of a config text, every line checked."""
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
        if key not in _GRIDS and key not in _SCALAR_KEYS:
            raise ValidationError(f"line {lineno}: unknown key '{shown(key)}'")
        if key in seen:
            raise ValidationError(f"line {lineno}: duplicate key '{key}'")
        if not raw:
            raise ValidationError(f"line {lineno}: empty value for '{key}'")
        seen[key] = (raw, lineno)
    return seen


def parse_config(text: str) -> SweepConfig:
    """Parse and validate the flat key=value sweep format."""
    return _build_config(_entries(text))


def _build_config(seen: dict[str, tuple[str, int]]) -> SweepConfig:
    """The config of each key's (raw value, line number), line 0 for a flag; the grids are read
    in the order of :data:`_GRIDS`, then mode, digits and out, and the first error wins."""
    if ("a" in seen) == ("b" in seen):
        raise ValidationError("exactly one of 'a' or 'b' must be given")
    grids = {}
    for key, (parse, ok, rule, default) in _GRIDS.items():
        entry = seen.get(key)
        if entry is None or (key == "dt" and entry[0].strip() == "auto"):
            if key == "delta":
                raise ValidationError("missing required key 'delta'")
            grids[key] = default
        elif key == "dt" and "auto" in (p.strip() for p in entry[0].split(",")):
            raise ValidationError(f"{_where(entry[1])}dt grid cannot mix 'auto' with numbers")
        else:
            grids[key] = _parse_grid(entry, key, parse, ok, rule)

    modes = (Mode.EXACT,)
    if "mode" in seen:
        modes = _parse_modes(*seen["mode"])

    digits = DEFAULT_DIGITS
    if "digits" in seen:
        raw, lineno = seen["digits"]
        digits = _parse_int(raw, "digits", lineno)
        if not 6 <= digits <= 17:
            raise ValidationError(f"{_where(lineno)}digits must be an integer in [6, 17]")
    out = seen["out"][0] if "out" in seen else None

    amplitude = "a" if "a" in seen else "b"
    return SweepConfig(amplitude=amplitude, ab=grids[amplitude], delta=grids["delta"], dt=grids["dt"],
                       k=grids["k"], xi=grids["xi"], modes=modes, digits=digits, out=out)


def _parse_modes(raw: str, lineno: int) -> tuple[Mode, ...]:
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


def _fit_grid(key, prior) -> list[tuple]:
    """The fit grid of the overlap exponent of ``key``, a (b, dt or None under dt=auto, k):
    its point (b, delta, dt, k, prior) at each default delta, or none where b delta reaches 1
    on that grid. A key has an exponent only where it has a grid whose every point is valid.
    The final overlap depends on neither xi nor delta, so every point of a key shares it."""
    b, dt, k = key
    if b * max(series.DEFAULT_DELTAS) >= 1.0:
        return []
    return [(b, d, dt, k, prior) for d in series.DEFAULT_DELTAS]


def _rows(columns, modes: tuple[Mode, ...], auto_dt: bool) -> list[ReportRow]:
    """The rows of valid points under each of ``modes``, from one :func:`protocol.tree`
    pass over their final step; ``columns`` holds the cells of the points, one sequence
    each for a, b, delta, dt, k and xi. Each (b, dt or auto, k) takes its overlap exponent
    from its :func:`_fit_grid` at the prior of its first point: one
    :func:`protocol.derive_points` call validates every grid, the same ``tree`` pass
    evaluates them, and one :func:`series.fit_power_laws` call fits them."""
    import numpy as np
    n, deltas = len(columns[0]), series.DEFAULT_DELTAS
    points = protocol.Points(*(np.array(column, float) for column in columns))
    _, b, _, dt, k, xi = columns
    keys = list(zip(b, (None,) * n if auto_dt else dt, k))
    grids = {}
    for key, prior in zip(keys, xi):
        if key not in grids:
            grids[key] = _fit_grid(key, prior)
    tried = [key for key, grid in grids.items() if grid]
    fitted, evaluated = [], points
    if tried:
        grid, errors = protocol.derive_points("b", *zip(*chain.from_iterable(grids.values())))
        valid = [not any(errors[j:j + len(deltas)]) for j in range(0, len(errors), len(deltas))]
        fitted = list(compress(tried, valid))
        if len(fitted) < len(tried):
            keep = np.repeat(valid, len(deltas))
            grid = protocol.Points(*(column[keep] for column in grid))
        evaluated = protocol.Points(*map(np.concatenate, zip(points, grid)))
    a, bd, x = protocol.normalised(evaluated)
    mass, survival, overlap, gap = protocol.tree(a, bd, x, evaluated.k)
    # The first n entries are the points, the rest the fit grids.
    fits = series.fit_power_laws(deltas, overlap[n:].reshape(-1, len(deltas)).tolist())
    exponents = {key: fit.exponent for key, fit in zip(fitted, fits)}
    priced = protocol.costs(modes, points.prior, *(v[:n] for v in (a, bd, mass, survival, overlap, gap)))
    # The cells every ledger shares between its total and its verdicts, the baselines among them.
    shared = (priced[0][1].tolist(), priced[0][2].tolist(), protocol.total_cost_paper_mode(points).tolist(),
              overlap[:n].tolist(), [exponents.get(key) for key in keys])
    rows = []
    for mode, (total, _, _, verdict_exact, verdict_paper) in zip(modes, priced):
        rows += map(ReportRow._make, zip(*columns, repeat(mode.value), total.tolist(), *shared,
                                         verdict_exact.tolist(), verdict_paper.tolist(), repeat("")))
    return rows


def _row_sort_key(row: ReportRow):
    def clean(x):
        return math.inf if isinstance(x, float) and math.isnan(x) else x

    return tuple(map(clean, _VALID_SORT_KEY(row)))


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
# :func:`_row_sort_key` of a row with no error, whose key fields hold no NaN.
_VALID_SORT_KEY = attrgetter("delta", "dt", "k", "xi", "a", "b", "mode")


def _report(rows: list[ReportRow], digits: int):
    """The CSV and the summary of ``rows`` in one pass, as (CSV text, summary text) pairs:
    the two headers, then the CSV lines and the summary block of each parameter point.

    The rows of a point must be adjacent, one per ledger, as :func:`run_sweep` returns
    them, and share every column but mode, total_cost, the verdicts and error, as the
    ledgers of a point do. So each float is formatted once, with ``%.<digits>g``: a point's
    cells serve its CSV lines and its summary block, and a row adds only its total and
    verdicts. A parameter cell is formatted once per distinct value of its column. Valid
    rows need no quoting and are joined as text; the rows of a failed point go through a
    ``csv.writer`` of their own, because an error message may need quoting.
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
            import csv
            import io
            quoted = io.StringIO()
            csv.writer(quoted, lineterminator="\n").writerows(
                point + [_fmt(getattr(row, col), num) for col in CSV_COLUMNS[6:]] for row in group)
            errors = sorted((row.mode, row.error) for row in group if row.error)
            yield quoted.getvalue(), head + "".join(f"  error[{m}]: {msg}\n" for m, msg in errors) + "\n"
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
            ok = row.verdict_vs_baseline_exact >= 0.0
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


def render_report(rows: list[ReportRow], digits: int = DEFAULT_DIGITS) -> tuple[str, str]:
    """The sweep CSV of ``rows`` and the human-readable adjudication of every parameter
    set in it, as (CSV text, summary text), each joined from the one rendering pass."""
    csv_texts, txt_texts = zip(*_report(rows, digits))
    return "".join(csv_texts), "".join(txt_texts)


def _create(path: str):
    """``path`` opened to write UTF-8 text with LF endings, its directory made first
    where it is not one yet."""
    parent = os.path.dirname(path)
    if parent and not os.path.isdir(parent):
        os.makedirs(parent, exist_ok=True)
    return open(path, "w", encoding="utf-8", newline="")


def emit_report(rows: list[ReportRow], out: str, digits: int = DEFAULT_DIGITS):
    """Write <out>.csv and <out>.txt in one rendering pass, each point's text to its
    file as soon as it is made, so neither whole text is held; returns the two paths
    as ``pathlib.Path``. The bytes are those of :func:`render_report`."""
    from pathlib import Path
    if not rows:
        raise ValidationError("no rows to report")
    with _create(out + ".csv") as csv_file, _create(out + ".txt") as txt_file:
        for csv_text, txt_text in _report(rows, digits):
            csv_file.write(csv_text)
            txt_file.write(txt_text)
    return Path(out + ".csv"), Path(out + ".txt")


def scaling_study(config: SweepConfig, quantity: str = "all") -> list[dict]:
    """One power-law fit per quantity per non-delta parameter tuple.

    The config delta grid is the fit grid and needs at least 3 points over a
    decade. With an ``a`` grid, b is derived at the largest delta and then
    held fixed across the fit. The study is one :func:`series.scaling_fits` call: each
    (template, delta) point built and priced once in floats, and one fit call. Indeterminate
    fits are flagged, not raised.
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


def _least_click_mass_dt(delta: float, lo: float, hi: float) -> float:
    """The dt of least click mass M_k in [lo, hi], for every k: the smallest multiple of
    pi / delta in it (clamped into it), where M_k = 0, or else the end with the larger
    |cos(delta dt)|; lo at delta = 0 and on a tie."""
    if delta > 0.0:
        dt = math.ceil(lo * delta / math.pi) * math.pi / delta
        if dt <= hi:
            return max(dt, lo)
        if abs(math.cos(delta * hi)) > abs(math.cos(delta * lo)):
            return hi
    return lo


def _exponent(key, prior) -> float | None:
    """The overlap exponent of ``key`` (see :func:`_fit_grid`) from one point at a time: each
    point of its grid built as a ProtocolParams and priced by :func:`protocol.final_step`."""
    try:
        overlaps = [protocol.final_step(ProtocolParams.from_b(b, d, k, dt=dt, prior=p))[2]
                    for b, d, dt, k, p in _fit_grid(key, prior)]
    except ValidationError:  # a point of the grid is not valid
        return None
    return series.fit_power_laws(series.DEFAULT_DELTAS, [overlaps])[0].exponent if overlaps else None


def optimize(config: SweepConfig, mode: Mode) -> tuple[ProtocolParams, ReportRow]:
    """Minimize the selected ledger's total cost over the free parameters.

    Each k's grid dts (under dt=auto, its cancellation dt) are validated as parameter sets.
    Either total never falls as the click mass M_k rises, so a dt bracket adds for each k the dt
    of least M_k (:func:`_least_click_mass_dt`), valid unbuilt as every check on dt is monotone
    in dt. Each candidate is priced in floats, by :func:`protocol.tree` on the shared normalised
    amplitudes and the ledger; the least (total, k, dt) wins, so ties go to smaller k, then
    smaller dt. Only the winner gets a row, priced by :func:`protocol.costs` as a sweep row is,
    and its exponent is one fit of one column over its :func:`_fit_grid`, each point built as a
    ProtocolParams. Other grids must be singletons.
    """
    ab, delta, xi = _require_singletons(config, "optimize")
    candidates: dict[tuple[int, float], ProtocolParams | None] = {}
    for k in config.k:
        seeds = [_point_params(config, ab, delta, dt, k, xi, mode) for dt in config.dt]
        candidates.update(((k, p.dt), p) for p in seeds)
        if len(config.dt) > 1:
            candidates.setdefault((k, _least_click_mass_dt(delta, config.dt[0], config.dt[-1])), None)
    a, bd, _ = protocol.normalised(seeds[0])  # a and b depend on neither k nor dt

    def priced(k, dt):
        point = protocol.tree(a, bd, delta * dt, float(k))
        return protocol.ledger(mode, xi, *point)[2], k, dt, point

    _, k, dt, point = min(priced(k, dt) for k, dt in candidates)  # (k, dt) is never tied
    params = candidates[k, dt] or _point_params(config, ab, delta, dt, k, xi, mode)
    priced = protocol.costs((mode,), xi, a, bd, *point)[0]  # total, baselines, verdicts
    row = ReportRow(params.a, params.b, delta, dt, k, xi, mode.value, *priced[:3],
                    protocol.total_cost_paper_mode(params), point[2],
                    _exponent((params.b, None if config.auto_dt else dt, k), xi), *priced[3:])
    return params, row


def _render_run_report(report, digits: int):
    """The lines ``zenodisc run`` prints for ``report``: its head, then each leaf's as the leaf is
    made. The report is priced and its k checked against the step cap on the call."""
    num, p, leaves = _float_format(digits), report.params, report.iter_leaves()
    head = (f"mode=%s a={num} b={num} delta={num} dt={num} k=%s xi={num}\n"
            % (p.mode.value, p.a, p.b, p.delta, p.dt, p.k, p.prior)
            + "".join(f"{name:<16} = {num % getattr(report, name)}\n" for name in (
                "total_cost", "baseline_exact", "baseline_paper", "paper_new_cost", "final_overlap",
                "verdict_vs_exact", "verdict_vs_paper"))
            + "leaves (kind, step, p|h0, p|h1, marginal, posterior, cost):\n")
    def lines():
        # A click leaf's three probabilities are one float, and every click leaf shares the
        # prior and the click cost: a cell's float is formatted only when its object differs
        # from the one above it, or else from the cell before it in the line.
        above, texts = [None] * 5, [""] * 5
        for x in leaves:
            line = (x.p_given_h0, x.p_given_h1, x.marginal, x.posterior, x.leaf_cost)
            for i, v in enumerate(line):
                if v is not above[i]:
                    above[i] = v
                    texts[i] = texts[i - 1] if i and v is line[i - 1] else num % v
            yield "  %-8s %3s %s %s %s %s %s\n" % (x.kind, "-" if x.step is None else x.step, *texts)
    return chain((head,), lines())


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; keep 1 for validation
        raise ValidationError(message)


def _add_common(sub: argparse.ArgumentParser, keys: tuple[str, ...]):
    """The flags every command takes, then one flag for each config key of ``keys``."""
    sub.add_argument("--config", help="path to a key=value config file; a flag replaces the key of its name")
    sub.add_argument("--out", help="output path prefix (.csv/.txt appended)")
    sub.add_argument("--quiet", action="store_true", help="suppress stdout")
    for key in keys:
        sub.add_argument(f"--{key}", help="cost ledger: exact, paper or both" if key == "mode" else None)


def _config_from_args(args) -> SweepConfig:
    """The config of the --config file's entries, if given, where each flag given replaces
    the key of its name with line number 0; flags the command does not take are absent."""
    entries: dict[str, tuple[str, int]] = {}
    if args.config is not None:
        with open(args.config, encoding="utf-8") as file:
            entries = _entries(file.read())
    for key in (*_GRIDS, *_SCALAR_KEYS):
        val = getattr(args, key, None)
        if val is not None:
            entries[key] = (val, 0)
    return _build_config(entries)


def _require_singletons(cfg: SweepConfig, command: str) -> tuple[float, float, float]:
    for name, grid in (("a/b", cfg.ab), ("delta", cfg.delta), ("xi", cfg.xi)):
        if len(grid) != 1:
            raise ValidationError(f"{command} requires a single value for {name}")
    return cfg.ab[0], cfg.delta[0], cfg.xi[0]


def _emit(chunks, out: str | None, suffix: str, quiet: bool) -> int:
    """Write each of ``chunks`` as it comes to <out><suffix> when out is set, and to stdout
    unless quiet, so a caller that streams its text never holds it whole."""
    if not out:
        if not quiet:
            sys.stdout.writelines(chunks)
        return 0
    with _create(out + suffix) as file:
        for chunk in chunks:
            file.write(chunk)
            if not quiet:
                sys.stdout.write(chunk)
    return 0


def _cmd_baseline(cfg: SweepConfig, args) -> int:
    ab, delta, xi = _require_singletons(cfg, "baseline")
    # dt and k enter neither baseline, so the run of any valid pair prints them.
    report = protocol.run(_point_params(cfg, ab, delta, 1.0, 1, xi, Mode.EXACT))
    overlap, num = (report.params.b * delta) ** 2, _float_format(cfg.digits)
    text = (f"overlap |<psi0|psi1>|        = {num}\n"
            f"transition prob (standard)   = {num}\n"
            f"baseline_exact               = {num}\n"
            f"baseline_paper               = {num}\n"
            f"quadratic form b^2 delta^2/4 = {num}\n"
            f"guess_only_cost              = {num}\n"
            ) % (overlap, overlap ** 2, report.baseline_exact, report.baseline_paper, 0.25 * overlap,
                 guess_only_cost(xi))
    return _emit((text,), cfg.out, ".txt", args.quiet)


def _cmd_run(cfg: SweepConfig, args) -> int:
    ab, delta, xi = _require_singletons(cfg, "run")
    if len(cfg.dt) != 1:
        raise ValidationError("run requires a single dt (or auto)")
    if len(cfg.k) != 1:
        raise ValidationError("run requires a single k")
    params = _point_params(cfg, ab, delta, cfg.dt[0], cfg.k[0], xi, cfg.modes[0])
    first, *rest = [_render_run_report(protocol.run(params._replace(mode=mode)), cfg.digits)
                    for mode in cfg.modes]
    # Every check has run before a line is written; a blank line parts two ledgers.
    return _emit(chain(first, *(chain(("\n",), lines) for lines in rest)), cfg.out, ".txt", args.quiet)


def _cmd_sweep(cfg: SweepConfig, args) -> int:
    rows, summary = run_sweep(cfg), []

    def csv_chunks():  # the CSV streams; the summary, printed after it, is kept
        for csv_text, txt_text in _report(rows, cfg.digits):
            summary.append(txt_text)
            yield csv_text

    _emit(csv_chunks(), cfg.out, ".csv", args.quiet)
    return _emit(summary, cfg.out, ".txt", args.quiet)


def _cmd_scaling(cfg: SweepConfig, args) -> int:
    rows = scaling_study(cfg, args.quantity)
    return _emit((render_scaling_csv(rows, cfg.digits),), cfg.out, ".csv", args.quiet)


def _cmd_optimize(cfg: SweepConfig, args) -> int:
    if len(cfg.modes) != 1:
        raise ValidationError("optimize requires a single mode (exact or paper)")
    params, row = optimize(cfg, cfg.modes[0])
    csv_text, txt_text = render_report([row], cfg.digits)
    _emit((csv_text,), cfg.out, ".csv", quiet=True)
    _emit((txt_text,), cfg.out, ".txt", quiet=True)
    num = _float_format(cfg.digits)
    text = f"optimum: k=%s dt={num} total_cost={num}\n" % (params.k, params.dt, row.total_cost)
    if not args.quiet:
        sys.stdout.write(text + csv_text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="zenodisc",
                     description="Exact laboratory for repeated-null-measurement state discrimination.")
    sub = parser.add_subparsers(dest="command", required=True)
    point = ("a", "b", "delta", "xi")
    handlers = {
        "baseline": (_cmd_baseline, point, "print both Helstrom baselines for a candidate pair"),
        "run": (_cmd_run, ("mode", *point, "dt", "k"), "evaluate one protocol configuration"),
        "sweep": (_cmd_sweep, ("mode",), "evaluate a parameter grid and emit CSV + summary"),
        "scaling": (_cmd_scaling, (), "fit delta-scaling exponents of series residuals"),
        "optimize": (_cmd_optimize, ("mode",), "search k and dt for the lowest total cost"),
    }
    for name, (handler, keys, help_text) in handlers.items():
        cmd = sub.add_parser(name, help=help_text)
        _add_common(cmd, keys)
        if name == "scaling":
            cmd.add_argument("--quantity", default="all",
                             help="one of %s, or all" % ", ".join(sorted(series.SCALING_QUANTITIES)))
        cmd.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.handler(_config_from_args(args), args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

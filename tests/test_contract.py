"""The command-line contract over the whole input domain: every call of ``cli.main``
either exits 0 with nothing on stderr, or exits 1 with exactly one line on stderr
that starts ``error: `` or ``i/o error: ``; no other exception escapes it.

The calls are drawn near-valid, in the grammar of the config format: each key is
given in a config file, as a flag, as both (the flag wins) or not at all, and a
flag may be one the command does not take. Values sit at and around the edges of
the domain, each exact or one ulp off: the k-step prefactor's pole (a delta dt)^2 = 2,
b delta = 1, dt at multiples of pi / delta, k at 1, 2^53 and 10^18, priors 0 and 1,
delta = -0, and some that no grid accepts (nan, inf, 1e400, a mixed auto grid).
"""

import contextlib
import io
import math
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from zenodisc import ValidationError, cli, protocol

COMMANDS = ("baseline", "run", "sweep", "scaling", "optimize")
# The config keys each command takes a flag for.
FLAGS = {"baseline": ("out", "a", "b", "delta", "xi"),
         "run": ("out", "mode", "a", "b", "delta", "xi", "dt", "k"),
         "sweep": ("out", "mode"), "scaling": ("out",), "optimize": ("out", "mode")}
# Flags drawn for any command: each is rejected by a command that does not take it.
ALIEN_FLAGS = ("mode", "dt", "k", "e0", "digits")
BAD_VALUES = ("nan", "inf", "-inf", "1e400", "x", "-1", "0,0", "auto,1")


def _near(draw, x: float) -> float:
    """``x`` itself half the time, or else one ulp either side of it."""
    return draw(st.sampled_from((x, x, math.nextafter(x, math.inf), math.nextafter(x, -math.inf))))


def _pole_dt(a: float, b: float | None, delta: float) -> float:
    """A dt where the k-step prefactor's base 1 - (a delta dt)^2 / 2, as a scaling study
    evaluates it at delta, is exactly 0: one of the floats nearest sqrt(2) / (a delta), where
    a is the amplitude the study derives from b (from a first, if b is None), or else the
    nearest float itself."""
    try:
        b = protocol.amplitudes(delta, a=a)[1] if b is None else b
        a = protocol.amplitudes(delta, b=b)[0]
    except ValidationError:
        pass
    if a * delta == 0.0:
        return 1.0
    nearest = math.sqrt(2.0) / (a * delta)
    dts = [nearest]
    for direction in (math.inf, -math.inf):
        dt = nearest
        for _ in range(4):
            dt = math.nextafter(dt, direction)
            dts.append(dt)
    return next((dt for dt in dts if 1.0 - 0.5 * (a * a) * (delta * delta) * (dt * dt) == 0.0), nearest)


def _rarely(draw) -> bool:
    return draw(st.integers(0, 19)) == 0


@st.composite
def invocations(draw):
    """(argv, config text or None) of one call, its paths relative to a fresh directory."""
    command = draw(st.sampled_from(COMMANDS))
    # delta is the largest of its grid, where a scaling study derives its other amplitude.
    delta = draw(st.sampled_from((0.0, -0.0, 1e-4, 0.001, 0.01, 0.0625, 0.1, 0.5, 1.0))
                 | st.floats(1e-6, 1.0))
    a = draw(st.sampled_from((0.0, 1.0, 0.9)) | st.floats(0.0, 1.0))
    b_edge = 1.0 / delta if delta > 0.0 else 10.0  # b delta = 1
    b = draw(st.sampled_from((b_edge, 0.5 * b_edge, 0.0, 10.0)))
    amplitude = draw(st.sampled_from("ab"))
    dt_pole = _pole_dt(a, b if amplitude == "b" else None, delta)
    dt_zero = draw(st.integers(1, 3)) * math.pi / delta if delta > 0.0 else 1.0  # cos(delta dt) = +-1
    many = command == "scaling" or _rarely(draw)
    values = {
        "a": [_near(draw, a)],
        "b": [_near(draw, b)],
        "delta": [delta, _near(draw, delta) / 10.0 ** 0.5, delta / 10.0] if many else [delta],
        "dt": [_near(draw, draw(st.sampled_from((dt_pole, dt_pole, dt_zero, 0.5, 1e-12))))],
        "k": [draw(st.sampled_from((1, 2, 20, 2**53, 2**53 + 1, 10**18)))],
        "xi": [draw(st.sampled_from((0.0, 1.0, 0.5)) | st.floats(0.0, 1.0))],
    }
    raw = {key: ",".join(map(repr, vals)) for key, vals in values.items()}
    if draw(st.integers(0, 2)) == 0:
        raw["dt"] = "auto"
    if not _rarely(draw):  # else both a and b are given
        del raw["b" if amplitude == "a" else "a"]
    raw["mode"] = "bogus" if _rarely(draw) else draw(st.sampled_from(("exact", "paper", "both", "PAPER")))
    raw["digits"] = str(draw(st.sampled_from((5, 18)) if _rarely(draw) else st.integers(6, 17)))
    raw["out"] = "out/x"
    if _rarely(draw):  # a value no grid accepts
        raw[draw(st.sampled_from(sorted(values)))] = draw(st.sampled_from(BAD_VALUES))

    in_file, flags = {}, {}
    for key, value in raw.items():
        # Each key in the file, as a flag the command takes, as both, or, but for a, b and
        # delta, not at all.
        places = ("file", "flag", "both") if key in FLAGS[command] else ("file",)
        where = draw(st.sampled_from(places if key in ("a", "b", "delta") else places + ("none",)))
        if where in ("file", "both"):
            in_file[key] = value
        if where in ("flag", "both"):
            flags[key] = value
    if _rarely(draw):
        flags[draw(st.sampled_from(ALIEN_FLAGS))] = "1"
    config = "".join(f"{key}={value}\n" for key, value in in_file.items()) if in_file else None
    argv = [command]
    if config is not None:
        argv += ["--config", "missing.cfg" if _rarely(draw) else "cfg"]
    for key, value in flags.items():
        argv += [f"--{key}", value]
    if draw(st.booleans()):
        argv.append("--quiet")
    if command == "scaling":
        argv += ["--quantity", "nope" if _rarely(draw) else draw(st.sampled_from(("all", "k_step_state")))]
    return argv, config


@settings(max_examples=200, deadline=None)
@given(invocations())
def test_every_call_exits_zero_or_with_one_error_line(invocation):
    argv, config = invocation
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            if config is not None:
                with open("cfg", "w", encoding="utf-8") as file:
                    file.write(config)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        finally:
            os.chdir(cwd)
    err = err.getvalue()
    if code == 0:
        assert err == ""
    else:
        assert code == 1
        assert err.startswith(("error: ", "i/o error: ")) and err.count("\n") == 1 and err.endswith("\n"), err

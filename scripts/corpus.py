#!/usr/bin/env python3
"""Regenerate the byte-identity corpus, tests/corpus.json.

The corpus is a fixed, seeded list of `zenodisc` invocations: baselines,
runs (`--mode both`, auto and explicit dt, priors 0 and 1, k up to 3000,
one step past the cap), sweeps (a and b grids, delta = -0, k up to 10^18,
10^300 and a k of 400 digits, digits 6 to 17, failing points), every scaling
quantity, optimize brackets (some reaching past pi/delta) and error exits.
Each entry holds its argv, the text of its config file (written as `cfg`)
and what the call gave: the exit code and the sha256 of stdout, stderr and
every file it wrote.
tests/test_corpus.py replays every entry through `cli.main` and compares;
`replay(entry, command)` runs it through a command instead, an installed
`zenodisc` say, in a subprocess.

A change that moves output regenerates the corpus and names the entries
that moved; this script prints them. Digests assume the numpy and libm
rounding of the machine that made them; the corpus records the numpy
version and the platform (:func:`platform_info`). Only regeneration imports
numpy, to record its version: replaying an entry of a command that imports
none (baseline, optimize, run, scaling) runs without numpy installed. Run
from the repository root:

    PYTHONPATH=src python scripts/corpus.py
"""

import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

from zenodisc import cli

CORPUS = Path(__file__).resolve().parent.parent / "tests" / "corpus.json"
SEED = 20111


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def replay(entry: dict, command: list[str] | None = None) -> dict:
    """Run one invocation in a fresh temporary directory: its exit code, and the sha256
    of its stdout, its stderr and each file it wrote, by path in that directory. The
    call is ``cli.main`` in this process or, with ``command`` given, ``[*command, *argv]``
    in a subprocess, whose stdout and stderr bytes are hashed as it wrote them."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            if entry["config"] is not None:
                Path("cfg").write_text(entry["config"], encoding="utf-8", newline="")
            if command is None:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(entry["argv"])
                stdout, stderr = out.getvalue().encode(), err.getvalue().encode()
            else:
                proc = subprocess.run([*command, *entry["argv"]], capture_output=True)
                code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
            files = {path.as_posix(): _sha256(path.read_bytes())
                     for path in sorted(Path(".").rglob("*")) if path.is_file() and path.name != "cfg"}
        finally:
            os.chdir(cwd)
    return {"exit": code, "stdout": _sha256(stdout), "stderr": _sha256(stderr), "files": files}


def moved(entries: list[dict], command: list[str] | None = None) -> list[str]:
    """The names of the entries whose :func:`replay` differs from what they record."""
    return [e["name"] for e in entries
            if replay(e, command) != {key: e[key] for key in ("exit", "stdout", "stderr", "files")}]


def platform_info() -> dict:
    """What the digests depend on beside the code and numpy: the machine, its C library,
    whose libm rounds ``math``'s exp, log, sin and cos, and the Python version."""
    import platform
    return {"machine": platform.machine(), "libc": " ".join(platform.libc_ver()),
            "python": platform.python_version()}


def _config(**keys) -> str:
    return "".join(f"{key}={value}\n" for key, value in keys.items())


def _grid(values) -> str:
    return ",".join(repr(v) if isinstance(v, float) else str(v) for v in sorted(set(values)))


def invocations() -> list[dict]:
    """The corpus's invocations, the same on every call: (name, argv, config text)."""
    rng = random.Random(SEED)
    entries = []

    def add(name, argv, config=None):
        entries.append({"name": name, "argv": argv, "config": config})

    def prior():
        return rng.choice((0.0, 1.0)) if rng.random() < 0.25 else rng.random()

    def k_value(top):
        return int(10 ** rng.uniform(0.0, math.log10(top)))

    # baseline
    add("baseline-b", ["baseline", "--b", "10", "--delta", "0.01", "--xi", "0.5"])
    add("baseline-a", ["baseline", "--a", "0.999", "--delta", "0.001", "--xi", "0.3"])
    add("baseline-prior-0", ["baseline", "--b", "10", "--delta", "0.01", "--xi", "0"])
    add("baseline-digits-6", ["baseline", "--config", "cfg", "--out", "out/base"],
        _config(b=3, delta=0.2, xi=0.9, digits=6))
    add("baseline-repro", ["baseline", "--b", "9.29364586521526", "--delta", "0.08486942153990186",
                           "--xi", "0.3556961698229455"])
    add("baseline-fails", ["baseline", "--b", "200", "--delta", "0.01"])
    add("baseline-grid", ["baseline", "--config", "cfg"], _config(b=10, delta="0.01,0.001"))
    # No baseline depends on the ledger, so baseline takes no --mode.
    add("baseline-mode-flag", ["baseline", "--b", "10", "--delta", "0.01", "--mode", "paper"])

    # run
    add("run-both-auto", ["run", "--b", "10", "--delta", "0.001", "--k", "5", "--dt", "auto",
                          "--mode", "both"])
    add("run-out", ["run", "--a", "0.99", "--delta", "0.01", "--k", "12", "--dt", "0.7",
                    "--xi", "1", "--out", "out/run", "--quiet"])
    for i in range(7):
        delta = 10 ** rng.uniform(-3.0, -0.7)
        ab = (("a", rng.uniform(0.3, 1.0)) if rng.random() < 0.5
              else ("b", rng.uniform(0.0, 0.95) / delta))
        dt = "auto" if rng.random() < 0.4 else repr(rng.uniform(0.01, 3.0))
        add(f"run-{i:02d}", ["run", "--config", "cfg"],
            _config(**{ab[0]: repr(ab[1])}, delta=repr(delta), dt=dt, k=k_value(3000),
                    xi=repr(prior()), mode=rng.choice(("exact", "paper", "both")),
                    digits=rng.randint(6, 17)))
    add("run-huge-k", ["run", "--b", "10", "--delta", "0.01", "--dt", "1e-12", "--k",
                       "1000000000000000000"])
    # One step past the cap on the per-step views: rejected before a byte is written.
    add("run-past-step-cap", ["run", "--b", "10", "--delta", "0.01", "--dt", "1e-12", "--k", "1000001"])
    # The click mass is ~3e-13: the exact-ledger verdict M g(M) keeps its digits,
    # 4.68438859384...e-13, where total - baseline_exact printed 4.68444727452777e-13.
    add("run-verdict-digits", ["run", "--b", "88.85074653873919", "--delta", "0.00934590131528339",
                               "--dt", "0.00016620039754226847", "--k", "17", "--xi", "0.3045145664658649"])
    add("run-bad-value", ["run", "--b", "10", "--delta", "abc", "--k", "1", "--dt", "1"])
    # A flag replaces the config key of its name: k=7, not the file's 3.
    add("run-flags-over-config", ["run", "--config", "cfg", "--k", "7"], _config(b=10, delta=0.01, k=3))

    # sweep
    add("sweep-headline", ["sweep", "--config", "cfg", "--out", "out/headline", "--quiet"],
        _config(b=10, delta="0.01,0.001", dt="auto", k="1,5,20", xi=0.5, mode="both"))
    add("sweep-zero-delta", ["sweep", "--config", "cfg", "--out", "out/zero"],
        _config(a="0.99,1", delta="-0,0.01", dt=0.5, k="1,7", mode="both"))
    add("sweep-huge-k", ["sweep", "--config", "cfg"],
        _config(b=10, delta="0.2,0.01", dt="1e-12", k="5,1000000000000000000", xi=0.5, mode="both"))
    add("sweep-k400", ["sweep", "--config", "cfg", "--out", "out/k400", "--quiet"],
        _config(b=10, delta=0.01, dt="auto", k="1,5" + "0" * 400, mode="both"))
    add("sweep-overflow", ["sweep", "--config", "cfg"],
        _config(b=1, delta=0.01, dt="1e200", k=1, mode="both"))
    # paper_new_cost, k (a delta dt)^2 / 4 = 2.5e297, is finite where the product
    # k a^2 dt^2 delta^2 overflows.
    add("sweep-paper-new-cost-k300", ["sweep", "--config", "cfg"],
        _config(b=10, delta="1e-6", dt="1e5", k="1" + "0" * 300, mode="paper"))
    for i in range(14):
        amplitude = rng.choice("ab")
        delta = [rng.choice((-0.0, 0.0)) if rng.random() < 0.1 else 10 ** rng.uniform(-4.0, -1.0)
                 for _ in range(rng.randint(1, 2))]
        if amplitude == "a":
            ab = [rng.choice((0.0, 1.0)) if rng.random() < 0.25 else rng.uniform(0.3, 1.0)
                  for _ in range(rng.randint(1, 3))]
        else:  # b delta past 1 at the largest delta fails
            ab = [rng.uniform(0.0, 1.3) / max(delta) if max(delta) > 0 else rng.uniform(0.0, 20.0)
                  for _ in range(rng.randint(1, 3))]
        dt = "auto" if rng.random() < 0.4 else _grid(rng.uniform(0.01, 3.0) for _ in range(rng.randint(1, 2)))
        ks = [k_value(10**4) for _ in range(rng.randint(1, 3))] + ([10**18] if rng.random() < 0.2 else [])
        config = _config(**{amplitude: _grid(ab)}, delta=_grid(delta), dt=dt, k=_grid(ks),
                         xi=_grid(prior() for _ in range(rng.randint(1, 2))),
                         mode=rng.choice(("exact", "paper", "both")), digits=rng.randint(6, 17))
        argv = ["sweep", "--config", "cfg"] + (["--out", f"out/sweep{i}"] if i % 2 else [])
        add(f"sweep-{i:02d}", argv, config)

    # scaling
    quantities = ("baseline", "click_prob", "final_overlap", "k_step_state", "one_step_state",
                  "overlap_vs_series", "survival_k", "survival_step")
    for i, quantity in enumerate(quantities):
        if i % 2:
            config = _config(a="0.99,0.999", delta="0.01,0.0031622776601683794,0.001", dt="0.5,1.0",
                             k="1,7,50", xi=0.5, digits=6 + i)
        else:
            config = _config(b=10, delta="0.01,0.0031622776601683794,0.001", dt="auto", k="1,5,20",
                             xi=0.5)
        add(f"scaling-{quantity}", ["scaling", "--config", "cfg", "--quantity", quantity], config)
    add("scaling-all", ["scaling", "--config", "cfg", "--out", "out/scaling", "--quiet"],
        _config(b=10, delta="0.01,0.0031622776601683794,0.001", dt="auto", k="1,5,20", xi=0.5))
    add("scaling-overflow", ["scaling", "--config", "cfg"],
        _config(b=1, delta="0.1,0.03,0.01", dt=1, k=10000000))
    # k = 2^53 + 1, past the integers a float holds exactly.
    add("scaling-k-past-2-53", ["scaling", "--config", "cfg"],
        _config(b=10, delta="0.01,0.0031622776601683794,0.001", dt="auto", k=2**53 + 1))
    # The first overflow is in the fourth template, (a = 0.99, dt = 10, k = 3000).
    add("scaling-overflow-later-template", ["scaling", "--config", "cfg"],
        _config(a="0.99,0.999", delta="0.1,0.03,0.01", dt="1,10", k="1,3000"))
    # b = 20 fails at delta = 0.1 though b = 1 overflows first in template order.
    add("scaling-failing-template", ["scaling", "--config", "cfg"],
        _config(b="1,20", delta="0.1,0.03,0.01", dt=1, k=10000000))
    # (a delta dt)^2 = 2 at delta = 0.0625: the k-step prefactor's base is exactly 0, a pole
    # where Python's ** raises; the series form is inf there, and the study names the point.
    add("scaling-prefactor-pole", ["scaling", "--config", "cfg"],
        _config(b=5.333333333333333, delta="0.00625,0.01976423537605237,0.0625", dt=24, k=1, xi=0))
    # A study of every quantity on an a grid with explicit dt.
    add("scaling-a-grid", ["scaling", "--config", "cfg", "--out", "out/scaling_a", "--quiet"],
        _config(a="0.99,0.999", delta="0.01,0.0031622776601683794,0.001", dt="0.5,1.0", k="1,7,50",
                xi=0.5))
    # A k of 5000 digits, past what Python reads into an int: an error with its line number.
    add("scaling-k5000", ["scaling", "--config", "cfg"],
        _config(b=10, delta="0.01,0.0031622776601683794,0.001", dt="auto", k="1,5" + "0" * 5000))
    add("scaling-short-grid", ["scaling", "--config", "cfg"], _config(b=10, delta="0.01,0.001"))
    add("scaling-unknown", ["scaling", "--config", "cfg", "--quantity", "nope"],
        _config(b=10, delta="0.01,0.0031622776601683794,0.001"))

    # optimize
    add("optimize-repro", ["optimize", "--config", "cfg"],
        _config(b="9.29364586521526", delta="0.08486942153990186",
                dt="3.4382922089011885,41.81160238104807", k=179, xi="0.3556961698229455", mode="exact"))
    add("optimize-auto", ["optimize", "--config", "cfg", "--out", "out/optimum"],
        _config(b=10, delta=0.001, dt="auto", k="1,5,20", xi=0.5, mode="exact"))
    add("optimize-paper-bracket", ["optimize", "--config", "cfg"],
        _config(b=10, delta=0.001, dt="0.2,5.0", k="1,2", xi=0.5, mode="paper"))
    for i in range(16):
        delta = 10 ** rng.uniform(-2.5, math.log10(0.6))
        amplitude = rng.choice("ab")
        ab = rng.uniform(0.3, 1.0) if amplitude == "a" else rng.uniform(0.0, 0.95) / delta
        top = rng.choice((math.pi / delta * rng.uniform(0.5, 3.5), rng.uniform(0.05, 60.0)))
        dt = ("auto" if i % 8 == 7
              else _grid([rng.uniform(0.01, top) for _ in range(rng.randint(1, 3))] + [top]))
        config = _config(**{amplitude: repr(ab)}, delta=repr(delta), dt=dt,
                         k=_grid(k_value(300) for _ in range(rng.randint(1, 3))), xi=repr(prior()),
                         mode=rng.choice(("exact", "paper")), digits=rng.randint(6, 17))
        argv = ["optimize", "--config", "cfg"] + (["--out", f"out/opt{i}"] if i % 3 == 0 else [])
        add(f"optimize-{i:02d}", argv, config)
    add("optimize-two-modes", ["optimize", "--config", "cfg"],
        _config(b=10, delta=0.001, dt="auto", k=1, mode="both"))
    add("optimize-delta-grid", ["optimize", "--config", "cfg"],
        _config(b=10, delta="0.01,0.001", dt="auto", k=1))
    add("optimize-auto-fails", ["optimize", "--config", "cfg"], _config(b=0, delta=0.01, dt="auto", k="1,2"))

    # parse and i/o errors
    add("error-unknown-key", ["sweep", "--config", "cfg"], _config(b=10, delta=0.01, colour="blue"))
    add("error-level-energy", ["sweep", "--config", "cfg"], _config(b=10, delta=0.01, e0=1))
    add("error-repeated", ["sweep", "--config", "cfg"], _config(b=10, delta="0.001,1e-3"))
    add("error-digits", ["sweep", "--config", "cfg"], _config(b=10, delta=0.01, digits=18))
    add("error-missing-file", ["sweep", "--config", "missing.cfg"])
    add("error-no-command", [])
    return entries


def main() -> int:
    import numpy as np  # for the version the corpus records; replay imports no numpy
    old = {}
    if CORPUS.exists():
        old = {e["name"]: e for e in json.loads(CORPUS.read_text(encoding="utf-8"))["entries"]}
    entries = [{**entry, **replay(entry)} for entry in invocations()]
    CORPUS.write_text(json.dumps({"numpy": np.__version__, "platform": platform_info(), "entries": entries},
                                 indent=1) + "\n", encoding="utf-8")
    moved = [e["name"] for e in entries if e["name"] in old and e != old[e["name"]]]
    added = [e["name"] for e in entries if e["name"] not in old]
    print(f"wrote {len(entries)} entries to {CORPUS.name}")
    print("moved:", " ".join(moved) or "none")
    if added and old:
        print("new:", " ".join(added))
    return 0


if __name__ == "__main__":
    sys.exit(main())

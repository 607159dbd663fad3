"""Byte identity of the command line: every invocation of the committed corpus
(tests/corpus.json, written by scripts/corpus.py) is replayed through
``cli.main`` in a temporary directory and must give its recorded exit code
and the sha256 of its recorded stdout, stderr and written files. One entry of
each command is also replayed as a command line, in a subprocess.

A change that moves output regenerates the corpus with scripts/corpus.py in
its own commit and names the moved entries and their cause in CHANGES.md.
The digests assume the numpy and libm rounding of the machine that made
them; the corpus records its numpy version and platform, and a failure names
both platforms where the replay's differs.
"""

import json
import os
import runpy
import sys
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
SCRIPT = runpy.run_path(str(REPO / "scripts" / "corpus.py"))
MOVED = SCRIPT["moved"]
CORPUS = json.loads((REPO / "tests" / "corpus.json").read_text(encoding="utf-8"))


def test_every_corpus_invocation_gives_its_recorded_bytes():
    entries = CORPUS["entries"]
    assert len(entries) >= 60
    assert sum(e["argv"][:1] == ["optimize"] and e["exit"] == 0 for e in entries) >= 15
    moved = MOVED(entries)
    recorded, here = CORPUS["platform"], SCRIPT["platform_info"]()
    platforms = "" if recorded == here else f"; recorded on {_shown(recorded)}, replayed on {_shown(here)}"
    assert not moved, (f"{len(moved)} corpus entries moved (corpus made with numpy "
                       f"{CORPUS['numpy']}, running {np.__version__}{platforms}): {', '.join(moved)}")


def _shown(platform: dict) -> str:
    return f"{platform['machine']}, {platform['libc']}, Python {platform['python']}"


def test_a_command_replays_the_recorded_bytes(monkeypatch):
    # The first entry of each command and the no-command error, each run as a command line
    # in a subprocess; CI replays every entry so through the installed `zenodisc`.
    firsts = {}
    for entry in CORPUS["entries"]:
        firsts.setdefault(tuple(entry["argv"][:1]), entry)
    chosen = [firsts[(command,)] for command in ("baseline", "run", "sweep", "scaling", "optimize")]
    chosen.append(firsts[()])
    monkeypatch.setenv("PYTHONPATH", str(REPO / "src"), prepend=os.pathsep)
    assert MOVED(chosen, [sys.executable, "-m", "zenodisc.cli"]) == []

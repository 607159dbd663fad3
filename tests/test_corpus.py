"""Byte identity of the command line: every invocation of the committed corpus
(tests/corpus.json, written by scripts/corpus.py) is replayed through
``cli.main`` in a temporary directory and must give its recorded exit code
and the sha256 of its recorded stdout, stderr and written files.

A change that moves output regenerates the corpus with scripts/corpus.py in
its own commit and names the moved entries and their cause in CHANGES.md.
The digests assume the numpy and libm rounding of the machine that made
them; the corpus records its numpy version.
"""

import json
import runpy
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
REPLAY = runpy.run_path(str(REPO / "scripts" / "corpus.py"))["replay"]


def test_every_corpus_invocation_gives_its_recorded_bytes():
    corpus = json.loads((REPO / "tests" / "corpus.json").read_text(encoding="utf-8"))
    entries = corpus["entries"]
    assert len(entries) >= 60
    assert sum(e["argv"][:1] == ["optimize"] and e["exit"] == 0 for e in entries) >= 15
    moved = []
    for entry in entries:
        got = REPLAY(entry)
        if got != {key: entry[key] for key in got}:
            moved.append(entry["name"])
    assert not moved, (f"{len(moved)} corpus entries moved (corpus made with numpy "
                       f"{corpus['numpy']}, running {np.__version__}): {', '.join(moved)}")

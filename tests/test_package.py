import os
import subprocess
import sys
from pathlib import Path

import zenodisc

REPO = Path(__file__).resolve().parent.parent
HEADLINE = "b=10\ndelta=0.01,0.001\ndt=auto\nk=1,5,20\nxi=0.5\nmode=both\n"
SCALING = "b=10\ndelta=0.01,0.0031622776601683794,0.001\ndt=auto\nk=1,5,20\nxi=0.5\n"
# Every public name of a run report: its stored tree, its priced views and its per-step views.
REPORT_VIEWS = ["baseline_exact", "baseline_paper", "click_mass", "final_gap", "final_overlap",
                "final_survival", "first_click", "iter_leaves", "leaves", "overlap_trajectory",
                "paper_new_cost", "params", "survival", "survival_trajectory", "survived", "total_cost",
                "verdict_vs_exact", "verdict_vs_paper"]


def test_every_export_resolves():
    # A stale name in __all__ fails only a star import, which nothing else makes.
    assert [name for name in zenodisc.__all__ if not hasattr(zenodisc, name)] == []
    exec("from zenodisc import *", {})


def test_validation_error_is_one_class():
    # helstrom, the lowest layer that raises it, defines it; qcore re-imports it.
    from zenodisc import helstrom, qcore
    assert zenodisc.ValidationError is helstrom.ValidationError is qcore.ValidationError


def _fresh_python(code: str, cwd: Path, *flags: str) -> str:
    """Run ``code`` in a fresh interpreter, which has not imported numpy as this one has,
    with ``flags`` and the package's src first on its path; return its stdout."""
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *flags, "-c", code], cwd=cwd, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_one_point_pipelines_never_import_numpy(tmp_path):
    # A baseline, an optimize search (with its exponent fit, and its one rendering pass
    # written through --out), a run listing its leaves under both ledgers, a run report at
    # k = 10^4 read in every view, the survived state among them, and a scaling study of
    # the headline grid: floats all the way, through math. No point fails, so no CSV writer
    # is built and csv is not imported.
    (tmp_path / "optimize.cfg").write_text("b=10\ndelta=0.001\ndt=0.1,0.2,0.3\nk=1,5,20\nxi=0.3\n"
                                           "mode=exact\n")
    (tmp_path / "scaling.cfg").write_text(SCALING)
    out = _fresh_python(
        "import sys\n"
        "from zenodisc import cli, protocol\n"
        "assert cli.main(['baseline', '--b', '10', '--delta', '0.01']) == 0\n"
        "assert cli.main(['optimize', '--config', 'optimize.cfg', '--out', 'optimum']) == 0\n"
        "assert cli.main(['run', '--b', '10', '--delta', '0.001', '--k', '20', '--dt', 'auto',\n"
        "                 '--mode', 'both']) == 0\n"
        "report = protocol.run(protocol.ProtocolParams.from_b(10.0, 0.001, 10**4))\n"
        "views = sorted(name for name in dir(report) if not name.startswith('_'))\n"
        "assert views == " + repr(REPORT_VIEWS) + ", views\n"
        "values = [getattr(report, name) for name in views] + list(report.iter_leaves())\n"
        "assert cli.main(['scaling', '--config', 'scaling.cfg', '--quiet']) == 0\n"
        "for name in ('numpy', 'csv', 'dataclasses', 'inspect', 'zenodisc.qcore'):\n"
        "    print(name, 'imported:', name in sys.modules)\n", tmp_path)
    assert out.startswith("overlap |<psi0|psi1>|")
    assert out.endswith("numpy imported: False\ncsv imported: False\ndataclasses imported: False\n"
                        "inspect imported: False\nzenodisc.qcore imported: False\n")
    assert (tmp_path / "optimum.csv").is_file() and (tmp_path / "optimum.txt").is_file()


def test_the_command_line_module_loads_no_typing_or_pathlib(tmp_path):
    # Under -S, since a .pth file that site runs may import typing and pathlib itself.
    # A record is a namedtuple, and a file is written through open and os.makedirs.
    out = _fresh_python(
        "import sys\n"
        "import zenodisc.cli\n"
        "print([name for name in ('dataclasses', 'typing', 'inspect', 'pathlib', 'zenodisc.qcore')\n"
        "       if name in sys.modules])\n", tmp_path, "-S")
    assert out == "[]\n"


def test_a_sweep_imports_numpy_and_writes_the_committed_headline(tmp_path):
    (tmp_path / "headline.cfg").write_text(HEADLINE)
    out = _fresh_python(
        "import sys\n"
        "from zenodisc import cli\n"
        "print('numpy imported:', 'numpy' in sys.modules)\n"
        "assert cli.main(['sweep', '--config', 'headline.cfg', '--out', 'headline', '--quiet']) == 0\n"
        "print('numpy imported:', 'numpy' in sys.modules)\n", tmp_path)
    assert out == "numpy imported: False\nnumpy imported: True\n"
    for name in ("headline.csv", "headline.txt"):
        assert (tmp_path / name).read_bytes() == (REPO / "results" / name).read_bytes(), name


def test_only_a_failing_point_imports_csv(tmp_path):
    # A report with no failing point is joined as text; a failing point's rows go through
    # a csv.writer of their own, which quotes an error message that holds commas.
    out = _fresh_python(
        "import sys\n"
        "from zenodisc import cli\n"
        "valid = cli.parse_config('b=10\\ndelta=0.01,0.001\\ndt=auto\\nk=1,5\\nmode=both')\n"
        "cli.render_report(cli.run_sweep(valid))\n"
        "print('csv imported:', 'csv' in sys.modules)\n"
        "failing = cli.parse_config('b=1\\ndelta=0.01\\ndt=1e200\\nk=1')\n"
        "print(cli.render_report(cli.run_sweep(failing))[0], end='')\n"
        "print('csv imported:', 'csv' in sys.modules)\n", tmp_path)
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[0] == "csv imported: False" and lines[3] == "csv imported: True"
    assert lines[2].endswith(',"dt^2, delta^2 and k (delta dt)^2 must be finite, '
                             'got dt=1e+200, delta=0.01, k=1"')

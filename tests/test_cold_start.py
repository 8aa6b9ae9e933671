"""Cold start of the CLI: what a fresh interpreter loads, and that the
subpackages the library imports on first use still load when needed.

The library imports scipy.optimize (brentq), scipy.integrate (quad) and
scipy.special in the functions that call them.  The benchmark's set-up
statements and a solve above s = 1/2 need none of them, and commands that
do need them give the same report bytes in a fresh process as in this one.
Every check runs in a new interpreter, because this test process has
loaded all three already; no check times anything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import diraclinear
from diraclinear import cli

ROOT = Path(__file__).resolve().parent.parent
DEFERRED = ("scipy.optimize", "scipy.integrate", "scipy.special")


def _run(argv):
    """A fresh interpreter on the diraclinear under test."""
    env = dict(os.environ, PYTHONPATH=str(Path(diraclinear.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                          text=True, timeout=120, cwd=ROOT)


def test_setup_and_a_bound_solve_leave_deferred_subpackages_unloaded(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.harness import SETUP_CODE

    code = SETUP_CODE + (
        "import contextlib, io, json, sys\n"
        "from diraclinear import cli\n"
        f"deferred = {DEFERRED!r}\n"
        "after_setup = [m for m in deferred if m in sys.modules]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    status = cli.main(['solve', '--s', '0.7', '--n', '1000'])\n"
        "after_solve = [m for m in deferred if m in sys.modules]\n"
        "print(json.dumps([status, after_setup, after_solve]))\n")
    proc = _run(["-c", code])
    assert proc.returncode == 0, proc.stderr
    status, after_setup, after_solve = json.loads(proc.stdout)
    assert status == 0
    assert after_setup == []
    assert after_solve == []


@pytest.mark.parametrize("argv", [
    ["lifetime", "--s", "0.25", "--n", "1000"],  # brentq and quad
    ["solve", "--n", "1000"],  # s = 1/2: the Airy level from scipy.special
])
def test_deferred_paths_give_in_process_bytes(argv, capsys):
    proc = _run(["-m", "diraclinear.cli", *argv])
    assert proc.returncode == 0, proc.stderr
    # each run builds its own grids, so both centre their stacks alike
    assert cli.main(argv) == 0
    assert proc.stdout == capsys.readouterr().out

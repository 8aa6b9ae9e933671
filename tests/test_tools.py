"""The repository tools: the answer ledger and the code-line counter.

The ledger test reruns the first seed-7 cycles of the `bound`, `analytic`
and `cli` benchmark workloads and the whole seed-7 and seed-11 `quasibound`
lists, and compares every answer
exactly with tests/data/answers.json, naming each request that moved.
A change that moves an answer on purpose rewrites that file with
`python3 tools/answer_ledger.py --write` and says so in CHANGES.md.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_answers_match_the_ledger(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))  # perfbench, read only
    ledger = _tool("answer_ledger")
    moved = ledger.moved(ledger.read_reference(), ledger.answers())
    assert not moved, "answers moved from tests/data/answers.json:\n" + "\n".join(moved)


def test_ledger_names_a_moved_answer():
    ledger = _tool("answer_ledger")
    reference = ledger.read_reference()
    current = {name: [dict(row) for row in rows] for name, rows in reference.items()}
    current["bound"][3]["E"] = repr(float(current["bound"][3]["E"]) + 1e-12)
    current["cli"][1]["codes"] = [1]
    assert ledger.moved(reference, reference) == []
    moved = ledger.moved(reference, current)
    assert [line.split(":")[0] for line in moved] == ["bound[3] E", "cli[1] codes"]


def test_ledger_counts_identical_answers_above_the_moved_ones(monkeypatch, capsys):
    ledger = _tool("answer_ledger")
    reference = ledger.read_reference()
    current = {name: [dict(row) for row in rows] for name, rows in reference.items()}
    monkeypatch.setattr(ledger, "answers", lambda: current)
    assert ledger.main([]) == 0
    assert capsys.readouterr().out == (
        "438 of 438 answers identical (analytic 16/16, bound 24/24, cli 14/14, "
        "quasibound 192/192, quasibound seed 11 192/192)\n")
    current["cli"][1]["codes"] = [1]
    assert ledger.main([]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "437 of 438 answers identical (analytic 16/16, bound 24/24, cli 13/14, "
        "quasibound 192/192, quasibound seed 11 192/192)",
        *ledger.moved(reference, current)]


def test_ledger_gives_a_moved_estimates_shift_in_spreads():
    ledger = _tool("answer_ledger")
    reference = dict(quasibound=[dict(estimates=["2.0", "2.01", "1.99"], gamma="1.5")])
    current = dict(quasibound=[dict(estimates=["2.0", "2.01", "1.985"], gamma="1.5")])
    assert ledger.moved(reference, current) == [
        "quasibound[0] estimates: ['2.0', '2.01', '1.99'] -> ['2.0', '2.01', '1.985'] "
        "(|dE| 0, 0, 0.005; shifts 0, 0, 0.25 of the reference spread 0.02)"]


def test_ledger_gives_a_moved_estimates_absolute_shift():
    # a spread of 1e-10 makes a 2e-9 move 20 spreads; the absolute shift
    # beside it shows how small the move is, also where the spread is 0
    ledger = _tool("answer_ledger")
    reference = dict(quasibound=[dict(estimates=["2.0", "2.0000000001", "2.0"], gamma="1.5"),
                                 dict(estimates=["3.0", "3.0", "3.0"], gamma="2.5")])
    current = dict(quasibound=[dict(estimates=["2.0", "2.0000000021", "2.0"], gamma="1.5"),
                               dict(estimates=["3.0", "3.0", "3.25"], gamma="2.5")])
    assert ledger.moved(reference, current) == [
        "quasibound[0] estimates: ['2.0', '2.0000000001', '2.0'] -> "
        "['2.0', '2.0000000021', '2.0'] (|dE| 0, 2e-09, 0; shifts 0, 20, 0 of the "
        "reference spread 1e-10)",
        "quasibound[1] estimates: ['3.0', '3.0', '3.0'] -> ['3.0', '3.0', '3.25'] "
        "(|dE| 0, 0, 0.25; the reference spread is 0)"]


def test_code_lines_skip_blanks_comments_and_docstrings():
    source = '''"""A module
docstring."""

import math  # a code line with a comment


class Box:
    """A class docstring."""

    side = 2.0

    def area(self):
        """A function docstring
        over two lines."""
        # a comment line
        text = """not a docstring"""
        return self.side ** 2, text
'''
    assert _tool("code_lines").count_lines(source) == (17, 6)

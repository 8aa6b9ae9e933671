"""Counts the lines of each src/diraclinear module.

    python3 tools/code_lines.py [ROOT]

prints, per module and in total, all lines and code lines.  A code line
is one that is neither blank, a comment nor part of a docstring: the
string that opens a module, class or function body.  ROOT is a source
checkout, by default the one this script lies in.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def count_lines(source: str) -> tuple[int, int]:
    """(all lines, code lines) of a Python source text."""
    lines = source.splitlines()
    skip = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                skip.update(range(first.lineno, first.end_lineno + 1))
    code = sum(1 for i, line in enumerate(lines, 1)
               if i not in skip and line.strip() and not line.strip().startswith("#"))
    return len(lines), code


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0]) if args else Path(__file__).resolve().parent.parent
    total = code = 0
    for path in sorted((root / "src" / "diraclinear").glob("*.py")):
        n, c = count_lines(path.read_text(encoding="utf-8"))
        total, code = total + n, code + c
        print(f"{path.name:16} {n:6} {c:6}")
    print(f"{'total':16} {total:6} {code:6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Count the code lines of Python files, by default ``src/relnet/*.py``.

A code line is a non-blank line that is neither a ``#`` comment nor part
of a docstring (the string that opens a module, class or function
body).  Usage, from the repository root::

    python tools/code_lines.py            # per-file counts and the total
    python tools/code_lines.py PATH ...   # the same for the given files;
                                          # a directory counts its *.py files
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "relnet"


def docstring_lines(tree: ast.Module) -> set:
    """1-based line numbers covered by docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text(encoding="utf-8")
    skip = docstring_lines(ast.parse(source))
    return sum(
        1
        for number, line in enumerate(source.splitlines(), start=1)
        if number not in skip and line.strip() and not line.strip().startswith("#")
    )


def main(argv: list) -> int:
    paths = [
        f
        for p in map(Path, argv or [PACKAGE])
        for f in (sorted(p.glob("*.py")) if p.is_dir() else [p])
    ]
    total = 0
    for path in paths:
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

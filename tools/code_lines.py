"""Count code lines per file and in total for ``src/`` and ``tests/``.

A code line holds some token of Python code: blank lines, comment lines and
docstring lines do not count.  Run from anywhere:

    python tools/code_lines.py [DIR ...]

It prints one line per ``.py`` file, then a total per directory.  With no
argument it counts ``src`` and ``tests`` of the checkout it sits in.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> None:
    dirs = [Path(d) for d in argv] or [ROOT / "src", ROOT / "tests"]
    for d in dirs:
        total = 0
        for path in sorted(d.rglob("*.py")):
            n = code_lines(path.read_text(encoding="utf-8"))
            total += n
            print(f"{n:6d}  {path.relative_to(d.parent)}")
        print(f"{total:6d}  {d.name}/ total")


if __name__ == "__main__":
    main(sys.argv[1:])

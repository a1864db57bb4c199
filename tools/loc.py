#!/usr/bin/env python3
"""Code lines per module of ``src/cgkit``.

    python3 tools/loc.py [SRC_DIR]     # default: src/cgkit of this checkout

A code line is a line that holds a token other than a comment (blank
lines, comment lines and the line breaks between tokens do not count), and
is not part of a docstring: the string that opens a module, class or
function body, found with ``ast``.  Prints one line per module and the
total, so that a claim of less code can be checked by rerunning it.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers the docstrings of ``tree`` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one module's source."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print("usage: python3 tools/loc.py [SRC_DIR]", file=sys.stderr)
        return 2
    src = Path(argv[0]) if argv else ROOT / "src" / "cgkit"
    total = 0
    for path in sorted(src.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Print the line, code-line and docstring-line counts of each module of a package.

    python3 scripts/src_lines.py               # src/rainfit
    python3 scripts/src_lines.py path/to/pkg

A code line holds at least one token that is not a comment, and is not
part of a module, class or function docstring.  So blank lines, comment
lines and docstrings do not count; a line of code with a trailing comment
does, and so does every line of a string that is not a docstring.  A
docstring line is a line of a module, class or function docstring.  One
row per `*.py` file, in name order, then the total.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

# Token types that hold no code: comments, line ends, indentation.
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(source: str) -> set[int]:
    """The numbers of the lines of module, class and function docstrings."""
    lines: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                first = node.body[0]
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in Python source (see the module docstring)."""
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstring_lines(source))


def count(package: Path) -> list[tuple[str, int, int, int]]:
    """(file name, lines, code lines, docstring lines) for each `*.py` file
    in package, by name."""
    rows = []
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        rows.append((path.name, len(source.splitlines()), code_lines(source), len(docstring_lines(source))))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    default = Path(__file__).resolve().parents[1] / "src" / "rainfit"
    parser.add_argument("package", nargs="?", type=Path, default=default,
                        help="package directory (default: src/rainfit of this checkout)")
    args = parser.parse_args(argv)
    rows = count(args.package)
    rows.append(("total", *(sum(r[i] for r in rows) for i in (1, 2, 3))))
    name_w = max(len(r[0]) for r in rows + [("module",)])
    print(f"{'module'.ljust(name_w)}  {'lines':>6}  {'code':>6}  {'docs':>6}")
    for name, lines, code, docs in rows:
        print(f"{name.ljust(name_w)}  {lines:>6}  {code:>6}  {docs:>6}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

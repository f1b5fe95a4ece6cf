#!/usr/bin/env python3
"""Count the code lines of the package's modules.

A code line holds at least one token of code: blank lines, comment lines
and the lines of a docstring (of a module, a class or a function) do not
count.  Prints one ``<count> <module>`` line per module of
``src/revpinsker``, then ``<count> total``.  Runs in process:

    python3 scripts/code_lines.py [path ...]

Each path is a Python file or a directory whose ``*.py`` files are
counted; the default is ``src/revpinsker`` of this checkout.
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "revpinsker"
#: token types that are no code
_NOT_CODE = frozenset({tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                       tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER})


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in a module's source text."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="*", type=Path, default=[PACKAGE])
    args = parser.parse_args(argv)
    files = []
    for path in args.paths:
        files += sorted(path.glob("*.py")) if path.is_dir() else [path]
    total = 0
    for file in files:
        count = code_lines(file.read_text())
        total += count
        print(f"{count:5d} {file.name}")
    print(f"{total:5d} total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Count the code lines of the ``lieseek`` package.

A code line is a line that is not blank, not a comment and not part of a
docstring (of the module, a class or a function).  Prints one line per
module of ``src/lieseek/`` and the total::

    python3 tools/count_lines.py [PACKAGE_DIR]
"""

from __future__ import annotations

import ast
import os
import sys


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that the docstrings of ``tree`` span."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        body = node.body
        if (body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count_lines(path: str) -> int:
    """The code lines of the Python source file at ``path``."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    skip = docstring_lines(ast.parse(source))
    return sum(1 for number, line in enumerate(source.splitlines(), start=1)
               if number not in skip and line.strip()
               and not line.strip().startswith("#"))


def main(argv: list[str]) -> int:
    root = argv[1] if len(argv) > 1 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "src", "lieseek")
    total = 0
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            count = count_lines(os.path.join(root, name))
            total += count
            print(f"{count:6d}  {name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

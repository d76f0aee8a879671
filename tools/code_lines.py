"""Count the lines of the Python files under a directory.

Prints, per file and in total, all lines and code lines.  A code line is
one that is not blank, not a comment alone and not part of a module,
class or function docstring.

    python tools/code_lines.py src/codedmr
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def docstring_lines(tree: ast.Module) -> set[int]:
    """The 1-based line numbers that the docstrings in *tree* span."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """All lines and code lines of the Python file *path*."""
    text = path.read_text()
    lines = text.splitlines()
    skip = docstring_lines(ast.parse(text))
    code = sum(
        1
        for number, line in enumerate(lines, 1)
        if number not in skip and line.strip() and not line.strip().startswith("#")
    )
    return len(lines), code


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: code_lines.py DIRECTORY", file=sys.stderr)
        return 2
    total = code = 0
    for path in sorted(Path(argv[0]).rglob("*.py")):
        n, c = count(path)
        total += n
        code += c
        print(f"{path}: {n} lines, {c} code lines")
    print(f"total: {total} lines, {code} code lines")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

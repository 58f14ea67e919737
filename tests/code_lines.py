"""Total and code lines of the Python files under a directory, or of one file.

A code line holds at least one token that is not a comment and is not part
of a docstring (the string that opens a module, class or function body).
Blank lines, comment lines and docstring lines are left out; a line that
ends in a comment after code counts. Run from the repository root:

    python tests/code_lines.py src
    python tests/code_lines.py src/wsriccati/riccati.py

A path that does not exist is an error: the script prints it and exits 1.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """Total lines and code lines of one Python source."""
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            code.update(range(token.start[0], token.end[0] + 1))
    code -= _docstring_lines(ast.parse(source))
    return len(source.splitlines()), len(code)


def count_tree(root: Path) -> tuple[int, int]:
    """Total lines and code lines summed over the ``*.py`` files under ``root``, or of one file."""
    if not root.exists():
        raise FileNotFoundError(f"{root}: no such file or directory")
    total = code = 0
    for path in [root] if root.is_file() else sorted(root.rglob("*.py")):
        lines, kept = count(path.read_text(encoding="utf-8"))
        total += lines
        code += kept
    return total, code


def main(argv: list[str]) -> int:
    for name in argv or ["src"]:
        try:
            total, code = count_tree(Path(name))
        except FileNotFoundError as exc:
            print(exc, file=sys.stderr)
            return 1
        print(f"{name}: {total} lines, {code} code lines")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

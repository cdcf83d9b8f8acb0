"""Print the line counts of the engine's modules.

Two counts over ``src/stc/*.py``: physical lines (what ``wc -l`` reads)
and code lines, the lines that hold some token other than a comment and
are not part of a module, class or function docstring.

    python tools/code_lines.py [FILE ...]

With no FILE it counts ``src/stc/*.py`` under the repository root, one
row per file and a total row.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(text: str) -> tuple:
    """(physical lines, code lines) of the Python source ``text``."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return text.count("\n"), len(code - docstring_lines(ast.parse(text)))


def main(argv: list) -> int:
    paths = [Path(a) for a in argv] or sorted(
        (Path(__file__).resolve().parent.parent / "src" / "stc").glob("*.py"))
    total_lines = total_code = 0
    for path in paths:
        lines, code = count(path.read_text(encoding="utf-8"))
        total_lines, total_code = total_lines + lines, total_code + code
        print(f"{lines:6d} {code:6d}  {path.name}")
    print(f"{total_lines:6d} {total_code:6d}  total (lines, code lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Count the code lines of a Python package, module by module.

A line counts when a token other than a comment or a docstring lies on
it or spans it: blank lines, comment-only lines and docstring lines do
not count; a code line with a trailing comment does, and so does each
physical line of a statement that spans several (each line of a
multi-line string value included). A docstring is the first statement of
a module, class or function when that statement is a string. Standard
library only.

    python tools/code_lines.py [package_dir]   # default: src/bitrans
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_starts(tree: ast.Module) -> set:
    """(line, column) of each docstring of the module, its classes and its functions."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.value.lineno, first.value.col_offset))
    return starts


def counted_lines(source: str) -> set:
    """The 1-based numbers of the code lines of one module's source."""
    docstrings = _docstring_starts(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in SKIPPED or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = Path(argv[0] if argv else Path(__file__).resolve().parents[1] / "src" / "bitrans")
    total = 0
    for path in sorted(root.glob("*.py")):
        count = len(counted_lines(path.read_text(encoding="utf-8")))
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total ({root})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

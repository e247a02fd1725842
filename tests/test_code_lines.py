"""The code-line counter of ``tools/code_lines.py``, rule by rule on a synthetic module."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# (line, counted) for each line of a synthetic module.
LINES = [
    ('"""Module docstring,', False),
    ('over two lines."""', False),
    ("import os  # a code line with a trailing comment", True),
    ("# a comment-only line", False),
    ("", False),
    ('X = ("a string, not a docstring",', True),
    ("     os.sep)", True),
    ('TEXT = """a multi-line', True),
    ("", True),  # a blank line inside a string value is part of its token
    ('string value"""', True),
    ("", False),
    ("", False),
    ("class Thing:", True),
    ('    """Class docstring."""', False),
    ("", False),
    ("    def method(self, value):", True),
    ('        """Method docstring,', False),
    ("        on two lines.", False),
    ('        """', False),
    ("        return (value", True),
    ("", False),  # a blank line inside brackets holds no token: it stays blank
    ("                + 1)", True),
    ("", False),
    ("", False),
    ("def function():", True),
    ("    'Function docstring in single quotes.'", False),
    ("    'A second string is a statement, not a docstring.'", True),
    ("    return None  # trailing", True),
]
SOURCE = "\n".join(line for line, _ in LINES) + "\n"


def test_each_counting_rule_holds_line_by_line():
    want = {number for number, (_, counted) in enumerate(LINES, 1) if counted}
    assert code_lines.counted_lines(SOURCE) == want


def test_the_counter_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text('"""Doc."""\nx = 1\n')
    (tmp_path / "b.py").write_text("def f():\n    return 2  # two\n\n# end\n")
    assert code_lines.main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in out] == [["1", "a.py"], ["2", "b.py"], ["3", "total"]]

"""tools/code_lines.py: the code-line count that simplicity claims are measured with."""
from __future__ import annotations

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).resolve().parents[1] / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

# 7 code lines: the import, the two def lines, the three lines of the call
# and the last return.  The docstrings, the bare string, the comment-only
# and blank lines are not code.
_FIXTURE = '''\
"""The module docstring,
over two lines."""
import math  # a trailing comment


# a comment on its own line
def area(r):
    """The function docstring."""
    "a bare string in the body"
    return math.pi * pow(
        r,
        2)


def volume(r):
    "implicitly " "concatenated"
    "a docstring " \\
        "over two lines"
    return area(r) * r
'''


def test_code_lines_counts_only_code(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(_FIXTURE)
    assert code_lines.code_lines(path) == 7


def test_a_parenthesized_docstring_is_not_code(tmp_path):
    # 2 code lines, the def and the return, as with the bare docstring; a
    # parenthesized expression keeps its closing line
    path = tmp_path / "fixture.py"
    path.write_text('def f():\n    ("a parenthesized "\n     "docstring")\n    return 1\n')
    assert code_lines.code_lines(path) == 2
    path.write_text('(f(\n    "x")\n)\n')
    assert code_lines.code_lines(path) == 3


def test_main_prints_each_module_and_their_sum(tmp_path, capsys):
    (tmp_path / "fixture.py").write_text(_FIXTURE)
    (tmp_path / "other.py").write_text('"""One line of code."""\nx = 1\n')
    assert code_lines.main(["code_lines.py", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["fixture", "7"], ["other", "1"], ["total", "8"]]

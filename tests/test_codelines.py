"""tools/codelines.py: code lines are lines with a token other than a
comment, outside every docstring."""

import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "codelines", Path(__file__).resolve().parents[1] / "tools" / "codelines.py")
codelines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(codelines)

SOURCE = '''"""Module docstring,
on two lines."""

# A comment alone.
X = 1  # a comment after code
"""X's docstring."""


def f(a,
      b):
    """One line."""
    text = """an operand
spans two lines"""
    return a + b
'''


def test_counts_code_outside_docstrings():
    assert codelines.count(SOURCE) == {"lines": 14, "code": 6,
                                       "docstring": 4}


def test_main_prints_each_file(tmp_path, capsys):
    path = tmp_path / "m.py"
    path.write_text(SOURCE)
    assert codelines.main([str(path)]) == 0
    assert capsys.readouterr().out == (
        f"{path}: 14 lines, 6 code, 4 docstring\n")


def test_main_prints_the_total_of_several_files(tmp_path, capsys):
    one, two = tmp_path / "a.py", tmp_path / "b.py"
    one.write_text(SOURCE)
    two.write_text("X = 1\n")
    assert codelines.main([str(one), str(two)]) == 0
    assert capsys.readouterr().out == (
        f"{one}: 14 lines, 6 code, 4 docstring\n"
        f"{two}: 1 lines, 1 code, 0 docstring\n"
        "total: 15 lines, 7 code, 4 docstring\n")

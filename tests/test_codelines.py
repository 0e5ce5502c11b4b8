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

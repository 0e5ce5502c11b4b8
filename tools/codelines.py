"""Code lines of Python source files.

A line counts as code when it holds a token other than a comment (or the
newlines, indents and dedents around it) and lies outside every
docstring. A docstring is a string literal that stands alone as a
statement: the first one of a module, class or function, and the ones
placed after an assignment to document it. Lines inside a multi-line
string that is an operand count, as every line of its token does.

    python tools/codelines.py src/vrrjump/sim.py [more.py ...]

prints, for each file, its lines, code lines and docstring lines, and,
for more than one file, their total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from collections import Counter
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(source: str) -> set[int]:
    """The line numbers spanned by the string statements of source."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def count(source: str) -> dict[str, int]:
    """{"lines", "code", "docstring"} of source: its physical lines, its
    code lines and the lines its docstrings span."""
    docs = docstring_lines(source)
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return {"lines": len(source.splitlines()), "code": len(code - docs),
            "docstring": len(docs)}


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if not paths:
        print(__doc__.split("\n\n")[2].strip(), file=sys.stderr)
        return 2
    line = "{}: {lines} lines, {code} code, {docstring} docstring"
    total = Counter()
    for path in paths:
        c = count(Path(path).read_text())
        print(line.format(path, **c))
        total.update(c)
    if len(paths) > 1:
        print(line.format("total", **total))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Count the lines of code of Python modules.

A line of code holds a token other than a comment, a newline or an
indent, and lies outside every docstring (the first statement of a
module, class or function, when it is a string).  Blank lines, comments
and docstrings are not counted; a line holding code and a comment is.

    python tools/code_lines.py [FILE ...]

prints each file's count and the total; with no argument it counts
``src/gptkit/*.py`` under the repository root.
"""

import ast
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree):
    """The line numbers that docstrings take up."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path):
    """The number of lines of code in the file at ``path``."""
    with tokenize.open(path) as fh:
        source = fh.read()
    skip = docstring_lines(ast.parse(source))
    lines = set()
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in NOT_CODE:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main(argv):
    root = Path(__file__).resolve().parents[1]
    paths = argv or sorted(str(p) for p in (root / "src" / "gptkit").glob("*.py"))
    total = 0
    for path in paths:
        n = code_lines(path)
        total += n
        print(f"{n:6d} {path}")
    print(f"{total:6d} total")


if __name__ == "__main__":
    main(sys.argv[1:])

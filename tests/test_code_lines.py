"""tools/code_lines.py, the code-line counter CI prints per module."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("code_lines",
                                              ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
two lines."""

# a comment
import os  # code and a comment: counted


def f(x):
    """One-line docstring."""

    y = """a string that is not a docstring
    spans two lines"""
    return (x,
            y)


class C:
    """Class docstring."""
    z = 1
'''


def test_counts_code_lines_only(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE)
    # import, def, the two lines of y, the two of return, class, z
    assert code_lines.code_lines(path) == 8


def test_counts_every_module_by_default(capsys):
    code_lines.main([])
    out = capsys.readouterr().out.splitlines()
    names = [line.split()[-1] for line in out[:-1]]
    assert names == sorted(str(p) for p in (ROOT / "src" / "gptkit").glob("*.py"))
    assert out[-1].split() == [str(sum(int(line.split()[0]) for line in out[:-1])),
                               "total"]

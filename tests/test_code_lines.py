"""The code-line counter's rule, pinned on a small source."""

import subprocess
import sys
from pathlib import Path

from code_lines import code_lines

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a comment after code

# a comment line


def f(x):
    """Function docstring."""
    # a comment inside
    text = """a multi-line string

    is code"""
    """A string expression after the first statement."""
    return os.sep + text + x


class C:
    """Class docstring
    over two lines."""
'''


def test_code_lines_counts_code_outside_comments_and_docstrings():
    # import, def, the string's three lines less its blank one, the
    # string expression, return and class
    assert code_lines(SOURCE) == 7


def test_code_lines_script_prints_each_file_and_the_total(tmp_path):
    for name in ("a.py", "b.py"):
        (tmp_path / name).write_text(SOURCE)
    script = Path(__file__).resolve().parent / "code_lines.py"
    out = subprocess.run([sys.executable, str(script), "a.py", "b.py"],
                         cwd=tmp_path, check=True, capture_output=True,
                         text=True).stdout
    assert out == "     7 a.py\n     7 b.py\n    14 total\n"

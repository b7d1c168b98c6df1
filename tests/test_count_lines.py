"""`tools/count_lines.py` counts lines as `wc -l` does, and code lines without blanks, comments and docstrings."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "count_lines.py"

MODULE = '''"""A module docstring
over two lines."""

import os  # a comment after code


# a comment alone
def f(x):
    """A function docstring."""
    s = """a string that is no docstring,
    over two lines"""
    return (x,
            s)
'''


def test_counts_lines_of_code_apart_from_blanks_comments_and_docstrings(tmp_path):
    (tmp_path / "module.py").write_text(MODULE)
    (tmp_path / "__init__.py").write_text("# a comment alone\n")
    run = subprocess.run([sys.executable, str(TOOL), str(tmp_path)], capture_output=True, text=True, check=True)
    rows = [line.split() for line in run.stdout.splitlines()]
    # 13 lines: the import, the def, and the two lines of each of the string and the return are code
    assert rows == [["module", "wc", "-l", "code"], ["__init__.py", "1", "0"], ["module.py", "13", "6"], ["total", "14", "6"]]

"""No module of `pakit` but `vector` builds a numpy `S` dtype.

numpy orders `S` values with their trailing NUL bytes stripped, which is
unsigned byte order only for values of one fixed width.  `Vector.sort`
and the read-time order check of `CompactTable` both take that order
from the one view `vector.py` builds, so they cannot disagree.  Each
module under the package is parsed, and outside `vector.py` every
string constant that spells an `S` dtype and every use of numpy's
`bytes_` type is refused, since a parse cannot tell what a string is
passed to.
"""

import ast
import re
from pathlib import Path

import pytest

import pakit

MODULES = sorted(Path(pakit.__file__).parent.rglob("*.py"))
S_DTYPE = re.compile(r"[<>=|]?S(\d+|%d)?")
S_TYPES = {"bytes_", "string_"}


def s_dtypes(source: str) -> list:
    """(line, text) of each string that spells an `S` dtype and each numpy `bytes_` type, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and S_DTYPE.fullmatch(node.value):
            found.append((node.lineno, node.value))
        elif isinstance(node, ast.Attribute) and node.attr in S_TYPES:
            found.append((node.lineno, node.attr))
    return sorted(found)


@pytest.mark.parametrize("path", [path for path in MODULES if path.name != "vector.py"], ids=lambda path: path.stem)
def test_module_builds_no_s_dtype(path):
    assert s_dtypes(path.read_text()) == []


def test_vector_builds_one_s_dtype():
    (vector,) = [path for path in MODULES if path.name == "vector.py"]
    assert [text for _, text in s_dtypes(vector.read_text())] == ["S%d"]


def test_s_dtypes_are_found():
    source = (
        'keys = np.frombuffer(buf, dtype="S%d" % width)\n'
        'np.dtype("|S8"); struct.Struct("%ds" % width)\n'
        'view = buf.view(f"S{width}")\n'
        "np.bytes_(b'a')\n"
        '"""Sorted by S."""\n'
    )
    # struct's lowercase `s` and a docstring that names `S` are no dtype
    assert s_dtypes(source) == [(1, "S%d"), (2, "|S8"), (3, "S"), (4, "bytes_")]

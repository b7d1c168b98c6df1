"""No module of `pakit` but `wire` reads a stream.

Every decoder reads through `wire.read_exact` or `wire.read_records`,
so a stream that ends early becomes a DecodeFault in one place, with
one message, and a short read that is not the end of the stream is
completed there too.  Each module under the package is parsed, and
outside `wire.py` every call of a method named like a stream's read
methods is refused, since a parse cannot tell a stream from another
object.
"""

import ast
from pathlib import Path

import pytest

import pakit

MODULES = sorted(Path(pakit.__file__).parent.rglob("*.py"))
READ_METHODS = {"read", "read1", "readinto", "readinto1", "readline", "readlines"}


def stream_reads(source: str) -> list:
    """(line, method) of each call of a read method on some object, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in READ_METHODS:
            found.append((node.lineno, node.func.attr))
    return sorted(found)


def test_every_module_is_parsed():
    assert {"wire.py", "logpr.py", "balanced.py", "trie.py"} <= {path.name for path in MODULES}


@pytest.mark.parametrize("path", [path for path in MODULES if path.name != "wire.py"], ids=lambda path: path.stem)
def test_module_reads_no_stream(path):
    assert stream_reads(path.read_text()) == []


def test_stream_reads_are_found():
    source = (
        "data = stream.read(8)\n"
        "wire.read_exact(stream, 8)\n"
        "f.readinto(buffer); reader = stream.read\n"
        "Trie.read(stream, 1)\n"
    )
    # a bound method that is never called is no read; a classmethod named read is
    assert stream_reads(source) == [(1, "read"), (3, "readinto"), (4, "read")]

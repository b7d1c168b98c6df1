"""No module of `pakit` but `wire` swaps bytes or maps a width to a typecode.

Every column of unsigned integers crosses the wire big-endian through
`wire.write_uints` and `wire.read_uints`, its array is made by
`wire.uint_array`, and every packer of big-endian symbols comes from
`wire.uint_struct`, so the host's byte order is handled in one place and
each width has one typecode.  Each module under the package is parsed,
and outside `wire.py` three things are refused, since a parse cannot
tell what an array or a table is for: any use of a `byteswap` method,
any read of a `byteorder` attribute, and any table from widths to
typecodes, that is a dict display whose keys are all among 1, 2, 4 and
8 and whose values are all one-letter integer typecodes, or a dict
comprehension keyed by an `itemsize`.
"""

import ast
from pathlib import Path

import pytest

import pakit

MODULES = sorted(Path(pakit.__file__).parent.rglob("*.py"))
TYPECODES = set("bBhHiIlLqQ")


def _is_typecode_table(node) -> bool:
    if isinstance(node, ast.DictComp):
        return isinstance(node.key, ast.Attribute) and node.key.attr == "itemsize"
    return (
        isinstance(node, ast.Dict)
        and bool(node.keys)
        and all(isinstance(key, ast.Constant) and key.value in (1, 2, 4, 8) for key in node.keys)
        and all(isinstance(value, ast.Constant) and value.value in TYPECODES for value in node.values)
    )


def byte_order_code(source: str) -> list:
    """(line, what) of each byteswap, byteorder and width-to-typecode table, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ("byteswap", "byteorder"):
            found.append((node.lineno, node.attr))
        elif _is_typecode_table(node):
            found.append((node.lineno, "typecode table"))
    return sorted(found)


@pytest.mark.parametrize("path", [path for path in MODULES if path.name != "wire.py"], ids=lambda path: path.stem)
def test_module_swaps_no_bytes(path):
    assert byte_order_code(path.read_text()) == []


def test_wire_holds_the_byte_order_and_the_typecodes():
    (wire,) = [path for path in MODULES if path.name == "wire.py"]
    assert {what for _, what in byte_order_code(wire.read_text())} == {"byteswap", "byteorder", "typecode table"}


def test_byte_order_code_is_found():
    source = (
        "values.byteswap()\n"
        "SWAP = sys.byteorder == 'little'; n = int.from_bytes(raw, byteorder='big')\n"
        "CODES = {array(code).itemsize: code for code in 'QLIHB'}\n"
        "PACK = {1: 'B', 2: 'H', 4: 'I', 8: 'Q'}\n"
        "NAMES = {1: 'one', 2: 'two'}; SIZES = {'B': 1}; swap = a.byteswap\n"
    )
    # a keyword named byteorder, a table of other values and one keyed by codes are none
    assert byte_order_code(source) == [
        (1, "byteswap"), (2, "byteorder"), (3, "typecode table"), (4, "typecode table"), (5, "byteswap"),
    ]

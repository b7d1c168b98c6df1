"""Container decoders on truncated and mutated streams.

A decoder must return a well-formed container or raise DecodeFault, and
either way leave the accounting registry where it found it.
"""

from io import BytesIO

import pytest
from hypothesis import given, strategies as st

from pakit import accounting
from pakit.compact_table import CompactTable
from pakit.errors import DecodeFault
from pakit.vector import Vector


def lexicographic(a, b):
    return (a > b) - (a < b)


def damage(data: bytes, draw) -> bytes:
    """Truncate `data`, or replace one of its bytes."""
    if draw(st.booleans()):
        return data[: draw(st.integers(0, max(len(data) - 1, 0)))]
    position = draw(st.integers(0, len(data) - 1))
    return data[:position] + bytes([draw(st.integers(0, 255))]) + data[position + 1 :]


@pytest.mark.parametrize("key_compare", [None, lexicographic], ids=["default", "key_compare"])
@pytest.mark.parametrize("key_size, datum_size", [(1, 0), (3, 2), (8, 4)])
@given(data=st.data())
def test_compact_table_read_of_damaged_stream(key_size, datum_size, key_compare, data):
    keys = data.draw(st.sets(st.binary(min_size=key_size, max_size=key_size), max_size=12))
    table = CompactTable(key_size, datum_size)
    for key in keys:
        table.insert(key, bytes(datum_size))
    stream = BytesIO()
    table.write(stream)
    table.destroy()
    before = accounting.totals()
    damaged = damage(stream.getvalue(), data.draw)
    try:
        loaded = CompactTable.read(BytesIO(damaged), key_size, datum_size, key_compare)
    except DecodeFault:
        pass
    else:
        loaded_keys = [key for key, _ in loaded.items()]
        assert all(a < b for a, b in zip(loaded_keys, loaded_keys[1:]))
        assert len(damaged) >= 8 + len(loaded) * (key_size + datum_size)
        loaded.destroy()
    assert accounting.totals() == before


@pytest.mark.parametrize("element_size", [1, 3, 12])
@given(data=st.data())
def test_vector_read_of_damaged_stream(element_size, data):
    elements = data.draw(st.lists(st.binary(min_size=element_size, max_size=element_size), max_size=12))
    vector = Vector(element_size, elements)
    stream = BytesIO()
    vector.write(stream)
    vector.destroy()
    before = accounting.totals()
    damaged = damage(stream.getvalue(), data.draw)
    try:
        loaded = Vector.read(BytesIO(damaged), element_size)
    except DecodeFault:
        pass
    else:
        count = int.from_bytes(damaged[:8], "big")
        assert len(loaded) == count
        assert b"".join(loaded) == damaged[8 : 8 + count * element_size]
        loaded.destroy()
    assert accounting.totals() == before

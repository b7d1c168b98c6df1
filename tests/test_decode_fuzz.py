"""Container and value decoders on truncated and mutated streams.

A decoder must return a well-formed container or value, or raise
DecodeFault, and either way leave the accounting registry where it
found it.
"""

import math
from io import BytesIO

import pytest
from hypothesis import given, strategies as st

from pakit import accounting, balanced, fixedlog, logpr
from pakit.compact_table import CompactTable
from pakit.errors import DecodeFault
from pakit.trie import Trie
from pakit.unigram import UnigramTable
from pakit.vector import Vector
from test_balanced import is_canonical


def damage(data: bytes, draw) -> bytes:
    """Truncate `data`, or replace one of its bytes."""
    if draw(st.booleans()):
        return data[: draw(st.integers(0, max(len(data) - 1, 0)))]
    position = draw(st.integers(0, len(data) - 1))
    return data[:position] + bytes([draw(st.integers(0, 255))]) + data[position + 1 :]


# "default" in the ids names the one key order, unsigned bytes
@pytest.mark.parametrize(
    "key_size, datum_size", [pytest.param(k, d, id="%d-%d-default" % (k, d)) for k, d in [(1, 0), (3, 2), (8, 4)]]
)
@given(data=st.data())
def test_compact_table_read_of_damaged_stream(key_size, datum_size, data):
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
        loaded = CompactTable.read(BytesIO(damaged), key_size, datum_size)
    except DecodeFault:
        pass
    else:
        loaded_items = list(loaded.items())
        loaded_keys = [key for key, _ in loaded_items]
        assert all(a < b for a, b in zip(loaded_keys, loaded_keys[1:]))
        assert len(damaged) >= 8 + len(loaded) * (key_size + datum_size)
        for key, datum in loaded_items:
            assert loaded.lookup(key) == datum
        absent = next(k for k in (bytes([b]) * key_size for b in range(256)) if k not in loaded_keys)
        assert loaded.lookup(absent) is None
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


@pytest.mark.parametrize("symbol_width", [1, 2])
@given(data=st.data())
def test_trie_read_of_damaged_stream(symbol_width, data):
    symbol = st.integers(0, (1 << (8 * symbol_width)) - 1)
    strings = data.draw(st.lists(st.lists(symbol, max_size=4).map(tuple), unique=True, max_size=8))
    trie = Trie(symbol_width)
    for string in strings:
        trie.index_of(string)
    stream = BytesIO()
    trie.write(stream)
    trie.destroy()
    before = accounting.totals()
    damaged = damage(stream.getvalue(), data.draw)
    try:
        loaded = Trie.read(BytesIO(damaged), symbol_width)
    except DecodeFault:
        pass
    else:
        assert len(loaded) == int.from_bytes(damaged[:8], "big")
        for index in range(len(loaded)):
            assert loaded.find(loaded.string_of(index)) == index
        loaded.destroy()
    assert accounting.totals() == before


@given(data=st.data())
def test_unigram_table_read_of_damaged_stream(data):
    counts = data.draw(st.lists(st.integers(0, 1 << 40) | st.integers(0, 3), min_size=1, max_size=10))
    table = UnigramTable(len(counts))
    for symbol, count in enumerate(counts):
        if count:
            table.increment(symbol, count)
    stream = BytesIO()
    table.write(stream)
    table.destroy()
    before = accounting.totals()
    damaged = damage(stream.getvalue(), data.draw)
    try:
        loaded = UnigramTable.read(BytesIO(damaged))
    except DecodeFault:
        pass
    else:
        size, width = loaded.alphabet_size, loaded.counter_width
        assert size == int.from_bytes(damaged[:8], "big") and damaged[8] == width
        raw = damaged[9 : 9 + size * width]
        loaded_counts = [int.from_bytes(raw[i : i + width], "big") for i in range(0, len(raw), width)]
        assert [loaded.count(symbol) for symbol in range(size)] == loaded_counts
        assert loaded.total() == sum(loaded_counts)
        loaded.destroy()
    assert accounting.totals() == before


def read_damaged(write, read, values, data):
    """Write `values` to one stream, damage it, and read back as many as it holds.

    Returns the values read before the first DecodeFault, which must
    come no later than the first value the damage reached and before any
    value the stream holds only part of.
    """
    stream = BytesIO()
    for value in values:
        write(stream, value)
    intact = stream.getvalue()
    damaged = damage(intact, data.draw)
    size = len(intact) // len(values)
    undamaged = next((i for i, (x, y) in enumerate(zip(intact, damaged)) if x != y), len(damaged)) // size
    source = BytesIO(damaged)
    loaded = []
    for _ in values:
        try:
            loaded.append(read(source))
        except DecodeFault:
            break
    assert loaded[:undamaged] == values[:undamaged]
    assert len(loaded) <= len(damaged) // size
    return loaded


balanced_values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(balanced.from_real),
    st.builds(
        lambda x, exponent: (balanced.from_real(x)[0], exponent),
        st.floats(0.5, 1.0, exclude_max=True),
        st.integers(-(1 << 31), (1 << 31) - 1),
    ),
)


@given(data=st.data())
def test_balanced_read_of_damaged_stream(data):
    values = data.draw(st.lists(balanced_values, min_size=1, max_size=4))
    for value in read_damaged(balanced.write, balanced.read, values, data):
        assert type(value) is tuple
        assert is_canonical(value)
        _, exponent = value
        assert -(1 << 31) <= exponent < 1 << 31


@given(data=st.data())
def test_logpr_read_of_damaged_stream(data):
    neg_logs = st.one_of(st.floats(min_value=0.0), st.just(logpr.ZERO))  # one byte from a NaN
    values = data.draw(st.lists(neg_logs, min_size=1, max_size=4))
    for value in read_damaged(logpr.write, logpr.read, values, data):
        assert type(value) is float
        assert not math.isnan(value) and value >= 0.0


@given(data=st.data())
def test_fixedlog_read_of_damaged_stream(data):
    values = data.draw(st.lists(st.integers(0, fixedlog.SENTINEL), min_size=1, max_size=4))
    for code in read_damaged(fixedlog.write, fixedlog.read, values, data):
        assert type(code) is int
        assert 0 <= code <= fixedlog.SENTINEL

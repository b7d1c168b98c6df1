"""Every size a caller passes obeys one rule: an `int` it takes, or a DomainFault before anything registers.

Each entry point below is driven with ints, floats, strings, `None`,
bools, numpy integers, `sys.maxsize` and ints past it.  A call either
succeeds, with the shape field (where there is one) equal to the size
and a plain `int`, or raises DomainFault naming the size, with
`accounting.totals()` unmoved and nothing read from or written to the
stream.  Each entry has a ceiling, `most`: `sys.maxsize`, or lower where
a size sets a larger one that must stay within it (a `CompactTable`
pair, a `HashTable`'s first block, the widest `UnigramTable` counters).
Other accepted ints are drawn small, since `UnigramTable` allocates
`alphabet_size` bytes.  `bench.workload` and `pr.conformance` get a
backend that stops them at its first read, after the size check, so a
count they take is not run.
"""

import sys
from io import BytesIO
from operator import attrgetter
from typing import Callable, NamedTuple, Optional

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pakit import accounting, bench, pr, wire
from pakit.accounting import Container
from pakit.compact_table import CompactTable
from pakit.errors import DomainFault, OverflowFault
from pakit.hashing import HashTable
from pakit.trie import Trie
from pakit.unigram import UnigramTable
from pakit.vector import Vector

WIDTHS = (1, 2, 4, 8)


class Taken(Exception):
    """Raised by STOPS when a call reads it: the call took its size and went on to the work."""


class _Stops:
    def __getattr__(self, name):
        raise Taken(name)


STOPS = _Stops()  # the backend of a call that loops over its count, so a count it takes is not run


class Entry(NamedTuple):
    """One size-taking call, `call(table, stream, size)`: `table` is a UnigramTable(4), `stream` a count of 0."""

    name: str  # the size's name, which a refusal must state
    call: Callable
    shape: Optional[Callable] = None  # what the call returned -> the field that must equal the size
    least: int = 1
    widths: Optional[tuple] = None  # the only ints taken, where not every int from `least` is
    takes_none: bool = False
    most: int = sys.maxsize  # the largest int taken; an int above it raises `over`
    over: type = DomainFault


ENTRIES = {
    "Vector": Entry("element_size", lambda t, s, n: Vector(n), attrgetter("element_size")),
    # key_size + datum_size is at most sys.maxsize, so each is at most sys.maxsize - 2 beside a 2
    "CompactTable-key": Entry(
        "key_size", lambda t, s, n: CompactTable(n, 2), attrgetter("key_size"), most=sys.maxsize - 2
    ),
    "CompactTable-datum": Entry(
        "datum_size", lambda t, s, n: CompactTable(2, n), attrgetter("datum_size"), least=0, most=sys.maxsize - 2
    ),
    # the 48-byte header and alphabet_size counters at their widest, 8 bytes
    "UnigramTable": Entry(
        "alphabet_size", lambda t, s, n: UnigramTable(n), attrgetter("alphabet_size"), most=(sys.maxsize - 48) // 8
    ),
    # the 48-byte header and the first 8 slots of key_size + 8 bytes
    "HashTable": Entry(
        "key_size", lambda t, s, n: HashTable(n), attrgetter("key_size"), takes_none=True,
        most=(sys.maxsize - 48) // 8 - 8,
    ),
    "Trie": Entry("symbol_width", lambda t, s, n: Trie(n), attrgetter("symbol_width"), widths=WIDTHS),
    "Vector.read": Entry("element_size", lambda t, s, n: Vector.read(s, n), attrgetter("element_size")),
    "CompactTable.read-key": Entry(
        "key_size", lambda t, s, n: CompactTable.read(s, n, 2), attrgetter("key_size"), most=sys.maxsize - 2
    ),
    "CompactTable.read-datum": Entry(
        "datum_size", lambda t, s, n: CompactTable.read(s, 2, n), attrgetter("datum_size"), least=0,
        most=sys.maxsize - 2,
    ),
    "Trie.read": Entry("symbol_width", lambda t, s, n: Trie.read(s, n), attrgetter("symbol_width"), widths=WIDTHS),
    "wire.read_uint": Entry("width", lambda t, s, n: wire.read_uint(s, n), widths=WIDTHS),
    "wire.write_uint": Entry("width", lambda t, s, n: wire.write_uint(s, 1, n), widths=WIDTHS),
    "wire.read_records": Entry("record_size", lambda t, s, n: wire.read_records(s, n)),
    # a counter holds 64 bits, so past them the refusal is the counter's OverflowFault
    "UnigramTable.increment": Entry(
        "by", lambda t, s, n: t.increment(0, n) or t, lambda t: t.count(0), most=(1 << 64) - 1, over=OverflowFault
    ),
    "bench.workload": Entry("op_count", lambda t, s, n: bench.workload(STOPS, n, 1)),
    "pr.conformance": Entry("sample_count", lambda t, s, n: pr.conformance(STOPS, n)),
}

NUMPY_INTEGERS = (np.int64, np.int32, np.uint8, np.intp)

SIZES = st.one_of(
    st.integers(-2, 64),
    st.sampled_from([sys.maxsize, sys.maxsize + 1, 1 << 70]),
    st.floats(),
    st.text(max_size=3),
    st.none(),
    st.booleans(),
    st.builds(lambda make, n: make(n), st.sampled_from(NUMPY_INTEGERS), st.integers(0, 64)),
)


def expected_fault(entry: Entry, value):
    """The fault `entry` must raise for `value`, or None where it takes it."""
    if value is None and entry.takes_none:
        return None
    if type(value) is not int or value < entry.least:
        return DomainFault
    if value > entry.most:
        return entry.over
    if entry.widths is not None and value not in entry.widths:
        return DomainFault
    return None


def check(entry: Entry, value):
    """Call `entry` with `value`, and assert it takes the size or refuses it as `expected_fault` says."""
    table = UnigramTable(4)
    stream = BytesIO(bytes(8))
    before = accounting.totals()
    fault = expected_fault(entry, value)
    try:
        if fault is None:
            try:
                result = entry.call(table, stream, value)
            except Taken:
                return
            if entry.shape is not None:
                field = entry.shape(result)
                assert field == value and type(field) is type(value)
            if isinstance(result, Container) and result is not table:
                result.destroy()
        else:
            with pytest.raises(fault, match=entry.name if fault is DomainFault else None):
                entry.call(table, stream, value)
            assert accounting.totals() == before
            assert stream.tell() == 0
            assert (table.count(0), table.total(), table.counter_width) == (0, 0, 1)
    finally:
        table.destroy()


@pytest.mark.parametrize("entry", ENTRIES.values(), ids=ENTRIES.keys())
@settings(max_examples=40)
@given(value=SIZES)
@example(value=2.5)
@example(value=3.0)
@example(value="4")
@example(value=None)
@example(value=True)
@example(value=False)
@example(value=0)
@example(value=-1)
@example(value=np.int64(4))
@example(value=sys.maxsize)
@example(value=sys.maxsize + 1)
@example(value=1 << 70)
def test_a_size_is_an_int_or_refused_before_anything_registers(entry, value):
    check(entry, value)


# a ceiling below sys.maxsize, probed on both sides; UnigramTable's would allocate about 1 EB
CEILINGS = ("CompactTable-key", "CompactTable-datum", "HashTable", "UnigramTable.increment")


@pytest.mark.parametrize("name", CEILINGS)
def test_a_ceiling_is_the_largest_size_taken(name):
    entry = ENTRIES[name]
    check(entry, entry.most)
    check(entry, entry.most + 1)


def test_the_refusal_states_the_rule():
    with pytest.raises(DomainFault, match=r"^element_size must be an int from 1 to sys.maxsize, got True$"):
        Vector(True)
    with pytest.raises(DomainFault, match=r"^datum_size must be an int from 0 to sys.maxsize, got 2.5$"):
        CompactTable(2, 2.5)
    with pytest.raises(DomainFault, match=r"^key_size must be an int from 1 to 1152921504606846961, got 4611686018427387904$"):
        HashTable(1 << 62)

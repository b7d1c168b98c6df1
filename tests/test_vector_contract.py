"""Vector's public contract as a state machine against a plain list of `bytes`.

Only public names are used, so any representation that keeps the
contract passes unedited: append, `extend` (all or nothing: an element
of the wrong size raises `ContractFault` and changes nothing), insert,
indexing with negative indexes, assignment, `sort()` in byte order,
`concat`, a `write` then `read` round trip, the iteration rule of
`accounting.Container`, and `destroy` returning the accounting totals
to where they started.
"""

from io import BytesIO

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from pakit import accounting
from pakit.errors import ContractFault, RangeFault
from pakit.vector import Vector

# element bytes drawn mostly from NUL, the sign bit and 0xFF, where a
# byte order could differ from a signed or NUL-stripped one
edge_bytes = st.one_of(st.sampled_from([0x00, 0x80, 0xFF]), st.integers(0, 255))


class VectorContract(RuleBasedStateMachine):
    """One vector and its oracle list; at most one open iterator, marked stale by any size change."""

    ELEMENT_SIZE: int

    def __init__(self):
        super().__init__()
        self.start = accounting.totals()
        self.vector = Vector(self.ELEMENT_SIZE)
        self.oracle = []
        self.elements = st.lists(edge_bytes, min_size=self.ELEMENT_SIZE, max_size=self.ELEMENT_SIZE).map(bytes)
        self.entries = None  # the open iterator
        self.seen = 0  # elements it has yielded so far
        self.stale = False  # a size change since it began

    def grew(self):
        self.stale = self.entries is not None

    @rule(data=st.data())
    def append(self, data):
        element = data.draw(self.elements)
        self.vector.append(element)
        self.oracle.append(element)
        self.grew()

    @rule(data=st.data())
    def extend(self, data):
        elements = data.draw(st.lists(self.elements, max_size=6))
        self.vector.extend(iter(elements))
        self.oracle.extend(elements)
        if elements:
            self.grew()

    @rule(data=st.data())
    def extend_with_a_bad_element(self, data):
        elements = data.draw(st.lists(self.elements, max_size=6))
        bad = data.draw(st.binary(max_size=self.ELEMENT_SIZE + 2).filter(lambda b: len(b) != self.ELEMENT_SIZE))
        elements.insert(data.draw(st.integers(0, len(elements))), bad)
        with pytest.raises(ContractFault):
            self.vector.extend(elements)
        assert list(self.vector) == self.oracle  # nothing changed

    @rule(data=st.data())
    def insert(self, data):
        position = data.draw(st.integers(0, len(self.oracle) + 1))
        element = data.draw(self.elements)
        if position > len(self.oracle):
            with pytest.raises(RangeFault):
                self.vector.insert(position, element)
            return
        self.vector.insert(position, element)
        self.oracle.insert(position, element)
        self.grew()

    @precondition(lambda self: self.oracle)
    @rule(data=st.data())
    def set_item(self, data):
        index = data.draw(st.integers(-len(self.oracle), len(self.oracle) - 1))
        element = data.draw(self.elements)
        self.vector[index] = element
        self.oracle[index] = element

    @rule(data=st.data())
    def get_item(self, data):
        n = len(self.oracle)
        index = data.draw(st.integers(-n - 1, n))
        if -n <= index < n:
            assert self.vector[index] == self.oracle[index]
        else:
            with pytest.raises(RangeFault):
                self.vector[index]

    @rule()
    def sort(self):
        self.vector.sort()
        self.oracle.sort()
        assert list(self.vector) == self.oracle

    @rule(data=st.data())
    def concat(self, data):
        tail = data.draw(st.lists(self.elements, max_size=6))
        other = Vector(self.ELEMENT_SIZE, tail)
        joined = self.vector.concat(other)
        try:
            assert list(joined) == self.oracle + tail
            assert list(self.vector) == self.oracle
        finally:
            other.destroy()
            joined.destroy()

    @rule()
    def write_then_read(self):
        stream = BytesIO()
        self.vector.write(stream)
        stream.seek(0)
        loaded = Vector.read(stream, self.ELEMENT_SIZE)
        try:
            assert stream.read() == b""
            assert loaded == self.vector
            assert list(loaded) == self.oracle
        finally:
            loaded.destroy()

    @rule(steps=st.integers(0, 3))
    def start_iterating(self, steps):
        self.entries, self.seen, self.stale = iter(self.vector), 0, False
        for _ in range(steps):
            if self.entries is not None:
                self.step_iterator()

    @precondition(lambda self: self.entries is not None)
    @rule()
    def step_iterator(self):
        if self.stale:
            with pytest.raises(ContractFault, match="during iteration"):
                next(self.entries)
            self.entries = None
            return
        element = next(self.entries, None)
        if self.seen == len(self.oracle):
            assert element is None
            self.entries = None
            return
        assert element == self.oracle[self.seen]  # a write in place since it began shows
        self.seen += 1

    @invariant()
    def sizes(self):
        assert len(self.vector) == len(self.oracle)
        assert accounting.totals()[0] == self.start[0] + 1

    def teardown(self):
        self.vector.destroy()
        assert accounting.totals() == self.start
        with pytest.raises(ContractFault, match="destroyed Vector"):
            len(self.vector)


class OneByteElements(VectorContract):
    ELEMENT_SIZE = 1


class ThreeByteElements(VectorContract):
    ELEMENT_SIZE = 3


_settings = settings(max_examples=100, stateful_step_count=50, deadline=None)
TestOneByteElements = OneByteElements.TestCase
TestOneByteElements.settings = _settings
TestThreeByteElements = ThreeByteElements.TestCase
TestThreeByteElements.settings = _settings

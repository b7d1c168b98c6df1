"""CompactTable's public contract as a state machine against a plain `dict` oracle.

Only public names are used, so any representation that keeps the
contract passes unedited: insert, lookup, `in`, delete, `len`, `nth` and
`items()` in key order, a `write` then `read` round trip, the iteration
rule of `accounting.Container`, and `destroy` returning the accounting
totals to where they started.  Runs of inserts take the table past one
fence block of `FENCE_STRIDE` keys, so lookups cross block boundaries.
"""

from io import BytesIO

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from pakit import accounting
from pakit.compact_table import CompactTable
from pakit.errors import ContractFault, RangeFault

# key bytes drawn mostly from NUL, the sign bit and 0xFF, where a byte
# order could differ from a signed or NUL-stripped one
edge_bytes = st.one_of(st.sampled_from([0x00, 0x80, 0xFF]), st.integers(0, 255))


class CompactTableContract(RuleBasedStateMachine):
    """One table and its oracle; at most one open iterator, marked stale by any size change."""

    KEY_SIZE: int
    DATUM_SIZE: int

    def __init__(self):
        super().__init__()
        self.start = accounting.totals()
        self.table = CompactTable(self.KEY_SIZE, self.DATUM_SIZE)
        self.oracle = {}
        self.fresh_keys = st.lists(edge_bytes, min_size=self.KEY_SIZE, max_size=self.KEY_SIZE).map(bytes)
        self.datums = st.binary(min_size=self.DATUM_SIZE, max_size=self.DATUM_SIZE)
        self.entries = None  # the open iterator
        self.seen = 0  # pairs it has yielded so far
        self.stale = False  # a size change since it began

    def key(self, data):
        """A key that is often present, when any is."""
        if self.oracle:
            return data.draw(st.one_of(self.fresh_keys, st.sampled_from(sorted(self.oracle))))
        return data.draw(self.fresh_keys)

    def put(self, key, datum):
        replaced = key in self.oracle
        assert self.table.insert(key, datum) is replaced
        self.oracle[key] = datum
        if not replaced:
            self.stale = self.entries is not None

    @rule(data=st.data())
    def insert(self, data):
        self.put(self.key(data), data.draw(self.datums))

    @rule(data=st.data())
    def insert_run(self, data):
        for key in data.draw(st.lists(self.fresh_keys, min_size=1, max_size=48)):
            self.put(key, data.draw(self.datums))

    @rule(data=st.data())
    def lookup(self, data):
        key = self.key(data)
        assert self.table.lookup(key) == self.oracle.get(key)
        assert (key in self.table) is (key in self.oracle)

    @rule(data=st.data())
    def delete(self, data):
        key = self.key(data)
        present = key in self.oracle
        assert self.table.delete(key) is present
        if present:
            del self.oracle[key]
            self.stale = self.entries is not None

    @rule(data=st.data())
    def nth(self, data):
        rank = data.draw(st.integers(-1, len(self.oracle)))
        if 0 <= rank < len(self.oracle):
            key = sorted(self.oracle)[rank]
            assert self.table.nth(rank) == (key, self.oracle[key])
        else:
            with pytest.raises(RangeFault):
                self.table.nth(rank)

    @rule()
    def all_items(self):
        assert list(self.table.items()) == sorted(self.oracle.items())
        for key, datum in self.oracle.items():
            assert self.table.lookup(key) == datum

    @rule()
    def write_then_read(self):
        stream = BytesIO()
        self.table.write(stream)
        stream.seek(0)
        loaded = CompactTable.read(stream, self.KEY_SIZE, self.DATUM_SIZE)
        try:
            assert stream.read() == b""
            assert len(loaded) == len(self.oracle)
            assert list(loaded.items()) == sorted(self.oracle.items())
            for key, datum in self.oracle.items():
                assert loaded.lookup(key) == datum
        finally:
            loaded.destroy()

    @rule(steps=st.integers(0, 3))
    def start_iterating(self, steps):
        self.entries, self.seen, self.stale = self.table.items(), 0, False
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
        ordered = sorted(self.oracle.items())
        entry = next(self.entries, None)
        if self.seen == len(ordered):
            assert entry is None
            self.entries = None
            return
        assert entry == ordered[self.seen]  # a replace since it began shows its new datum
        self.seen += 1

    @invariant()
    def sizes(self):
        assert len(self.table) == len(self.oracle)
        assert accounting.totals()[0] == self.start[0] + 1

    def teardown(self):
        self.table.destroy()
        assert accounting.totals() == self.start
        with pytest.raises(ContractFault, match="destroyed CompactTable"):
            self.table.lookup(bytes(self.KEY_SIZE))


class OneByteKeys(CompactTableContract):
    KEY_SIZE, DATUM_SIZE = 1, 0


class ThreeByteKeys(CompactTableContract):
    KEY_SIZE, DATUM_SIZE = 3, 2


class EightByteKeys(CompactTableContract):
    KEY_SIZE, DATUM_SIZE = 8, 4


_settings = settings(max_examples=100, stateful_step_count=50, deadline=None)
TestOneByteKeys = OneByteKeys.TestCase
TestOneByteKeys.settings = _settings
TestThreeByteKeys = ThreeByteKeys.TestCase
TestThreeByteKeys.settings = _settings
TestEightByteKeys = EightByteKeys.TestCase
TestEightByteKeys.settings = _settings

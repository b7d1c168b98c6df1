"""HashTable's public contract as a state machine against a plain `dict` oracle.

Only public names are used, so any representation that keeps the
contract passes unedited: insert, find, remove, `in`, `len`, `items()`,
capacity growth at MAX_LOAD, the iteration rule of `accounting.Container`,
and `destroy` returning the accounting totals to where they started.
"""

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from pakit import accounting
from pakit.errors import ContractFault
from pakit.hashing import MAX_LOAD, HashTable

_MISSING = object()
key_ids = st.integers(0, 15)


class HashTableContract(RuleBasedStateMachine):
    """One table and its oracle; at most one open iterator, marked stale by any mutation."""

    KEY_SIZE: object  # the key_size of the table under test, an int or None
    KEYS: tuple  # 16 keys, drawn by position

    def __init__(self):
        super().__init__()
        self.start = accounting.totals()
        self.table = HashTable(self.KEY_SIZE)
        self.oracle = {}
        self.capacity = self.table.capacity
        self.entries = None  # the open iterator
        self.seen = {}  # what it has yielded so far
        self.stale = False  # a mutation since it began

    def mutated(self):
        self.stale = self.entries is not None

    @rule(i=key_ids, datum=st.integers(0, 1 << 40))
    def insert(self, i, datum):
        key = self.KEYS[i]
        assert self.table.insert(key, datum) is (key in self.oracle)
        self.oracle[key] = datum
        self.mutated()

    @rule(i=key_ids)
    def find(self, i):
        key = self.KEYS[i]
        assert self.table.find(key, _MISSING) is self.oracle.get(key, _MISSING)
        assert self.table.find(key) is self.oracle.get(key)

    @rule(i=key_ids)
    def remove(self, i):
        key = self.KEYS[i]
        present = key in self.oracle
        assert self.table.remove(key) is present
        if present:
            del self.oracle[key]
            self.mutated()

    @rule(i=key_ids)
    def contains(self, i):
        key = self.KEYS[i]
        assert (key in self.table) is (key in self.oracle)

    @rule()
    def all_items(self):
        entries = list(self.table.items())
        assert len(entries) == len(self.oracle)
        assert dict(entries) == self.oracle

    @rule(steps=st.integers(0, 3))
    def start_iterating(self, steps):
        self.entries, self.seen, self.stale = self.table.items(), {}, False
        for _ in range(steps):
            if self.entries is not None:
                self.step_iterator()

    @precondition(lambda self: self.entries is not None)
    @rule()
    def step_iterator(self):
        if self.stale:
            with pytest.raises(ContractFault, match="mutated during iteration"):
                next(self.entries)
            self.entries = None
            return
        entry = next(self.entries, None)
        if entry is None:
            assert self.seen == self.oracle  # each entry exactly once
            self.entries = None
            return
        key, datum = entry
        assert key not in self.seen
        assert self.oracle[key] is datum
        self.seen[key] = datum

    @invariant()
    def sizes(self):
        assert len(self.table) == len(self.oracle)
        capacity = self.table.capacity
        assert capacity >= self.capacity and capacity & (capacity - 1) == 0
        assert len(self.table) <= MAX_LOAD * capacity
        self.capacity = capacity
        assert accounting.totals()[0] == self.start[0] + 1

    def teardown(self):
        self.table.destroy()
        assert accounting.totals() == self.start
        with pytest.raises(ContractFault, match="destroyed HashTable"):
            self.table.find(self.KEYS[0])


class SymbolContract(HashTableContract):
    KEY_SIZE = 8
    # 0 is a falsy key and 2**64 - 1 the widest; the rest share their low 32 bits
    KEYS = (0, (1 << 64) - 1, *(i << 32 | 7 for i in range(1, 15)))


class StringContract(HashTableContract):
    KEY_SIZE = None
    # b"" is a falsy key; embedded and trailing zero bytes tell keys apart
    KEYS = (b"", b"\x00", b"a\x00", b"a\x00b", *(b"w%d" % i for i in range(12)))


_settings = settings(max_examples=200, stateful_step_count=60, deadline=None)
TestSymbolContract = SymbolContract.TestCase
TestSymbolContract.settings = _settings
TestStringContract = StringContract.TestCase
TestStringContract.settings = _settings

"""Trie's public contract as a state machine against a `dict` and a `list`.

The dict maps each interned string, as a tuple of ints, to its index and
the list holds the strings in index order.  Only public names are used,
so any representation that keeps the contract passes unedited:
`index_of` hands out dense indices 0..n-1 and gives an interned string
its old one, `find` answers without interning, `string_of` inverts
`index_of`, `len` counts the strings, a `write` then `read` round trip
rebuilds the same numbering in a fresh trie, a symbol too wide or
negative raises `RangeFault` and changes nothing, and `destroy` returns
the accounting totals to where they started.  Strings arrive as
`bytes` (where every symbol fits a byte), lists and tuples.
"""

from io import BytesIO

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from pakit import accounting
from pakit.errors import ContractFault, RangeFault
from pakit.trie import Trie


class TrieContract(RuleBasedStateMachine):
    """One trie and its oracle: `indices` from string to index, `strings` in index order."""

    SYMBOL_WIDTH: int

    def __init__(self):
        super().__init__()
        self.start = accounting.totals()
        self.trie = Trie(self.SYMBOL_WIDTH)
        self.indices = {}
        self.strings = []
        top = (1 << 8 * self.SYMBOL_WIDTH) - 1
        # symbols drawn mostly from the edges of a byte and of the width
        symbols = st.one_of(st.sampled_from(sorted({0, 1, 0x7F, 0x80, 0xFF, top})), st.integers(0, top))
        self.fresh_strings = st.lists(symbols, max_size=4).map(tuple)
        self.bad_symbols = st.one_of(st.integers(top + 1, top + 2**70), st.integers(-(2**70), -1))

    def string(self, data):
        """A string as a tuple of ints, often one already interned, when any is."""
        if self.strings:
            return data.draw(st.one_of(self.fresh_strings, st.sampled_from(self.strings)))
        return data.draw(self.fresh_strings)

    def form(self, data, string):
        """`string` as the trie may be given it: a tuple, a list, or bytes when every symbol fits."""
        forms = [tuple, list] + ([bytes] if all(symbol < 256 for symbol in string) else [])
        return data.draw(st.sampled_from(forms))(string)

    @rule(data=st.data())
    def index_of(self, data):
        string = self.string(data)
        expected = self.indices.setdefault(string, len(self.strings))
        if expected == len(self.strings):
            self.strings.append(string)
        assert self.trie.index_of(self.form(data, string)) == expected

    @rule(data=st.data())
    def find(self, data):
        string = self.string(data)
        assert self.trie.find(self.form(data, string)) == self.indices.get(string)

    @rule(data=st.data())
    def string_of(self, data):
        n = len(self.strings)
        index = data.draw(st.integers(-1, n))
        if 0 <= index < n:
            assert self.trie.string_of(index) == self.strings[index]
        else:
            with pytest.raises(RangeFault):
                self.trie.string_of(index)

    @rule(data=st.data())
    def out_of_range_symbol(self, data):
        symbols = list(self.string(data))
        symbols.insert(data.draw(st.integers(0, len(symbols))), data.draw(self.bad_symbols))
        string = data.draw(st.sampled_from([tuple, list]))(symbols)
        with pytest.raises(RangeFault):
            self.trie.index_of(string)
        with pytest.raises(RangeFault):
            self.trie.find(string)
        self.all_strings_in_place()

    @precondition(lambda self: self.strings)
    @rule()
    def all_strings_in_place(self):
        assert [self.trie.string_of(index) for index in range(len(self.strings))] == self.strings
        assert [self.trie.find(string) for string in self.strings] == list(range(len(self.strings)))

    @rule()
    def write_then_read(self):
        stream = BytesIO()
        self.trie.write(stream)
        stream.seek(0)
        loaded = Trie.read(stream, self.SYMBOL_WIDTH)
        try:
            assert stream.read() == b""
            assert [loaded.string_of(index) for index in range(len(self.strings))] == self.strings
            assert [loaded.index_of(string) for string in self.strings] == list(range(len(self.strings)))
            assert len(loaded) == len(self.strings)  # and re-interning added nothing
        finally:
            loaded.destroy()

    @invariant()
    def sizes(self):
        assert len(self.trie) == len(self.strings) == len(self.indices)
        assert accounting.totals()[0] == self.start[0] + 1

    def teardown(self):
        self.trie.destroy()
        assert accounting.totals() == self.start
        with pytest.raises(ContractFault, match="destroyed Trie"):
            len(self.trie)


class OneByteSymbols(TrieContract):
    SYMBOL_WIDTH = 1


class TwoByteSymbols(TrieContract):
    SYMBOL_WIDTH = 2


_settings = settings(max_examples=100, stateful_step_count=50, deadline=None)
TestOneByteSymbols = OneByteSymbols.TestCase
TestOneByteSymbols.settings = _settings
TestTwoByteSymbols = TwoByteSymbols.TestCase
TestTwoByteSymbols.settings = _settings

"""UnigramTable's public contract as a state machine against a list of ints.

Only public names are used, so any representation that keeps the
contract passes unedited: `increment` adds to one counter, with steps up
to 2**40 so the counters widen through 1, 2, 4 and 8 bytes; `count` and
`total` read back the list and its sum; `counter_width` is always the
smallest of 1, 2, 4 and 8 bytes that holds the largest count; an
out-of-range symbol, an increment below 1 and a count past 64 bits each
fault and change nothing; a `write` then `read` round trip gives a table
equal to this one; and `destroy` returns the accounting totals to where
they started.
"""

from io import BytesIO

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from pakit import accounting
from pakit.errors import ContractFault, DomainFault, OverflowFault, RangeFault
from pakit.unigram import UnigramTable

MAX_COUNT = (1 << 64) - 1

# steps that land on and just past the top of each width, or anywhere up to 2**40
steps = st.one_of(
    st.integers(1, 3),
    st.sampled_from([0xFF, 0x100, 0xFFFF, 0x1_0000, 0xFFFF_FFFF, 0x1_0000_0000]),
    st.integers(1, 1 << 40),
)


def smallest_width(count: int) -> int:
    return next(width for width in (1, 2, 4, 8) if count >> 8 * width == 0)


class UnigramTableContract(RuleBasedStateMachine):
    """One table over ALPHABET_SIZE symbols and its oracle list of counts."""

    ALPHABET_SIZE: int

    def __init__(self):
        super().__init__()
        self.start = accounting.totals()
        self.table = UnigramTable(self.ALPHABET_SIZE)
        self.counts = [0] * self.ALPHABET_SIZE
        self.symbols = st.integers(0, self.ALPHABET_SIZE - 1)
        self.bad_symbols = st.one_of(st.integers(-(2**70), -1), st.integers(self.ALPHABET_SIZE, 2**70))

    def unchanged(self, operation, fault):
        """`operation` raises `fault` and leaves every count, the total and the width as they were."""
        width = self.table.counter_width
        with pytest.raises(fault):
            operation()
        self.counts_and_total()
        assert self.table.counter_width == width

    @rule(data=st.data(), by=steps)
    def increment(self, data, by):
        symbol = data.draw(self.symbols)  # 50 steps of at most 2**40 stay far below 2**64
        self.table.increment(symbol, by)
        self.counts[symbol] += by

    @rule(data=st.data())
    def increment_once(self, data):
        symbol = data.draw(self.symbols)
        self.table.increment(symbol)
        self.counts[symbol] += 1

    @rule(data=st.data())
    def increment_past_64_bits(self, data):
        symbol = data.draw(self.symbols)
        by = MAX_COUNT - self.counts[symbol] + data.draw(st.integers(1, 1 << 40))
        self.unchanged(lambda: self.table.increment(symbol, by), OverflowFault)

    @rule(data=st.data(), by=st.integers(-(1 << 40), 0))
    def increment_below_one(self, data, by):
        symbol = data.draw(self.symbols)
        self.unchanged(lambda: self.table.increment(symbol, by), DomainFault)

    @rule(data=st.data(), by=steps)
    def out_of_range_symbol(self, data, by):
        symbol = data.draw(self.bad_symbols)
        self.unchanged(lambda: self.table.increment(symbol, by), RangeFault)
        self.unchanged(lambda: self.table.count(symbol), RangeFault)

    @rule()
    def write_then_read(self):
        stream = BytesIO()
        self.table.write(stream)
        stream.seek(0)
        loaded = UnigramTable.read(stream)
        try:
            assert stream.read() == b""
            assert loaded == self.table
            assert [loaded.count(symbol) for symbol in range(self.ALPHABET_SIZE)] == self.counts
            assert loaded.total() == sum(self.counts)
            assert loaded.counter_width == self.table.counter_width
        finally:
            loaded.destroy()

    @invariant()
    def counts_and_total(self):
        assert [self.table.count(symbol) for symbol in range(self.ALPHABET_SIZE)] == self.counts
        assert self.table.total() == sum(self.counts)

    @invariant()
    def counter_width(self):
        assert self.table.counter_width == smallest_width(max(self.counts))
        assert accounting.totals()[0] == self.start[0] + 1

    def teardown(self):
        self.table.destroy()
        assert accounting.totals() == self.start
        with pytest.raises(ContractFault, match="destroyed UnigramTable"):
            self.table.total()


class OneSymbol(UnigramTableContract):
    ALPHABET_SIZE = 1


class FiveSymbols(UnigramTableContract):
    ALPHABET_SIZE = 5


_settings = settings(max_examples=100, stateful_step_count=50, deadline=None)
TestOneSymbol = OneSymbol.TestCase
TestOneSymbol.settings = _settings
TestFiveSymbols = FiveSymbols.TestCase
TestFiveSymbols.settings = _settings

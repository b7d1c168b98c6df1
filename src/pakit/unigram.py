"""Space-minimal symbol frequency table with self-widening counters.

Counts for an alphabet of n symbols live in one contiguous unsigned
array whose per-counter width starts at 1 byte and widens through
2, 4, 8 the moment any single counter would overflow.  Widening rewrites
the whole array and is invisible except through the memory footprint,
so a skewed stream whose largest count stays below 256 costs exactly
one byte per symbol.  The running total is kept in 64 bits for O(1)
normalization.

The counters are a stdlib `array` whose unsigned typecode has exactly
the counter width, so `increment` is one indexed add that widens only
when the array raises `OverflowError`, and `count` is one index: neither
makes a numpy call.  The stream holds the counters big-endian whatever
the host's byte order.
"""

import sys
from array import array
from operator import attrgetter

from . import wire
from .accounting import Container, checked_size
from .errors import DecodeFault, OverflowFault, RangeFault

# width -> an unsigned typecode of that itemsize, chosen by size since 'L'
# is 4 or 8 bytes by platform; a later code takes the width over
_TYPECODES = {array(code).itemsize: code for code in "QLIHB"}
_MAX_COUNT = (1 << 64) - 1
_SWAP = sys.byteorder == "little"  # the stream is big-endian
# the block of counters at their widest, 8 bytes, and the header is at most sys.maxsize
_MOST_ALPHABET = (sys.maxsize - Container.HEADER_BYTES) // 8


class UnigramTable(Container):
    """Per-symbol frequency counters over a fixed alphabet."""

    __slots__ = ("_alphabet_size", "_counters", "_total")

    alphabet_size = property(attrgetter("_alphabet_size"), doc="The number of symbols counted; read-only.")

    def __init__(self, alphabet_size: int):
        self._alphabet_size = alphabet_size = checked_size("alphabet_size", alphabet_size, most=_MOST_ALPHABET)
        self._counters = array(_TYPECODES[1], bytes(alphabet_size))
        self._total = 0
        super().__init__(alphabet_size)

    def _check_symbol(self, symbol: int) -> None:
        if not 0 <= symbol < self._alphabet_size:
            raise RangeFault(
                "symbol %d out of range for alphabet of %d" % (symbol, self._alphabet_size)
            )

    def _widen_to(self, width: int) -> None:
        self._counters = array(_TYPECODES[width], self._counters)
        self._resize(self._alphabet_size * width)

    @property
    def counter_width(self) -> int:
        return self._counters.itemsize

    def increment(self, symbol: int, by: int = 1) -> None:
        """Add `by` to the symbol's counter, widening the array if needed."""
        if not 0 <= symbol < self._alphabet_size:
            self._check_symbol(symbol)  # raises
        if type(by) is not int or by < 1:  # inline, as this runs per token; 64 bits bound it above
            checked_size("by", by)  # raises
        try:
            self._counters[symbol] += by
        except OverflowError:  # the counter left the width; the array is unchanged
            new_count = self._counters[symbol] + by
            if new_count > _MAX_COUNT:
                raise OverflowFault("counter for symbol %d exceeds 64 bits" % symbol) from None
            while new_count >> (8 * self._counters.itemsize):
                self._widen_to(2 * self._counters.itemsize)
            self._counters[symbol] = new_count
        self._total += by

    def count(self, symbol: int) -> int:
        """Exact frequency of `symbol`, independent of the current width."""
        if 0 <= symbol < self._alphabet_size:
            return self._counters[symbol]
        self._check_symbol(symbol)  # raises

    def total(self) -> int:
        """Sum of all counters."""
        return self._total

    def write(self, stream) -> None:
        """Format: alphabet_size (8 bytes), counter width (1), big-endian counters."""
        wire.write_uint(stream, self._alphabet_size, 8)
        counters = self._counters
        wire.write_uint(stream, counters.itemsize, 1)
        if _SWAP:
            counters = counters[:]
            counters.byteswap()
        stream.write(counters.tobytes())

    @classmethod
    def read(cls, stream) -> "UnigramTable":
        """Inverse of write; reproduces counts, width, and total."""
        alphabet_size = wire.read_uint(stream, 8)
        if alphabet_size < 1:
            raise DecodeFault("alphabet_size must be >= 1, got %d" % alphabet_size)
        width = wire.read_uint(stream, 1)
        if width not in _TYPECODES:
            raise DecodeFault("invalid counter width %d" % width)
        raw = wire.read_exact(stream, alphabet_size * width)  # before any registration
        table = cls(alphabet_size)
        counters = array(_TYPECODES[width])
        counters.frombytes(raw)
        if _SWAP:
            counters.byteswap()
        table._counters = counters
        table._total = sum(counters)
        table._resize(alphabet_size * width)
        return table

    def __eq__(self, other) -> bool:
        if not isinstance(other, UnigramTable):
            return NotImplemented
        return (
            self._alphabet_size == other._alphabet_size
            # array equality compares values, not typecodes
            and self._counters.itemsize == other._counters.itemsize
            and self._counters == other._counters
        )

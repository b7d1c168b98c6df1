"""Space-minimal symbol frequency table with self-widening counters.

Counts for an alphabet of n symbols live in one contiguous unsigned
array whose per-counter width starts at 1 byte and widens through
2, 4, 8 the moment any single counter would overflow.  Widening rewrites
the whole array and is invisible except through the memory footprint,
so a skewed stream whose largest count stays below 256 costs exactly
one byte per symbol.  The running total is kept in 64 bits for O(1)
normalization.
"""

import numpy as np

from . import wire
from .accounting import Container
from .errors import DecodeFault, DomainFault, OverflowFault, RangeFault

_WIDTH_DTYPES = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}
_WIDTHS = (1, 2, 4, 8)
_MAX_COUNT = (1 << 64) - 1


class UnigramTable(Container):
    """Per-symbol frequency counters over a fixed alphabet."""

    __slots__ = ("alphabet_size", "_counters", "_width", "_total")

    def __init__(self, alphabet_size: int):
        if alphabet_size < 1:
            raise DomainFault("alphabet_size must be >= 1, got %d" % alphabet_size)
        self.alphabet_size = alphabet_size
        self._width = 1
        self._counters = np.zeros(alphabet_size, dtype=np.uint8)
        self._total = 0
        super().__init__(alphabet_size)

    def _check_symbol(self, symbol: int) -> int:
        if not 0 <= symbol < self.alphabet_size:
            raise RangeFault(
                "symbol %d out of range for alphabet of %d" % (symbol, self.alphabet_size)
            )
        return symbol

    def _widen_to(self, width: int) -> None:
        self._counters = self._counters.astype(_WIDTH_DTYPES[width])
        self._width = width
        self._resize(self.alphabet_size * width)

    @property
    def counter_width(self) -> int:
        return self._width

    def increment(self, symbol: int, by: int = 1) -> None:
        """Add `by` to the symbol's counter, widening the array if needed."""
        self._check_live()
        self._check_symbol(symbol)
        if by < 1:
            raise DomainFault("increment must be >= 1, got %d" % by)
        new_count = self._counters.item(symbol) + by
        if new_count > _MAX_COUNT:
            raise OverflowFault("counter for symbol %d exceeds 64 bits" % symbol)
        while new_count >> (8 * self._width):
            self._widen_to(_WIDTHS[_WIDTHS.index(self._width) + 1])
        self._counters[symbol] = new_count
        self._total += by

    def count(self, symbol: int) -> int:
        """Exact frequency of `symbol`, independent of the current width."""
        self._check_live()
        return self._counters.item(self._check_symbol(symbol))

    def total(self) -> int:
        """Sum of all counters."""
        self._check_live()
        return self._total

    def write(self, stream) -> None:
        """Format: alphabet_size (8 bytes), counter width (1), big-endian counters."""
        self._check_live()
        wire.write_uint(stream, self.alphabet_size, 8)
        wire.write_uint(stream, self._width, 1)
        stream.write(self._counters.astype(">u%d" % self._width).tobytes())

    @classmethod
    def read(cls, stream) -> "UnigramTable":
        """Inverse of write; reproduces counts, width, and total."""
        alphabet_size = wire.read_uint(stream, 8)
        if alphabet_size < 1:
            raise DecodeFault("alphabet_size must be >= 1, got %d" % alphabet_size)
        width = wire.read_uint(stream, 1)
        if width not in _WIDTHS:
            raise DecodeFault("invalid counter width %d" % width)
        raw = wire.read_exact(stream, alphabet_size * width)  # before any registration
        table = cls(alphabet_size)
        table._counters = np.frombuffer(raw, dtype=">u%d" % width).astype(_WIDTH_DTYPES[width])
        table._width = width
        table._total = sum(table._counters.tolist())
        table._resize(alphabet_size * width)
        return table

    def __eq__(self, other) -> bool:
        if not isinstance(other, UnigramTable):
            return NotImplemented
        return (
            self.alphabet_size == other.alphabet_size
            and self._width == other._width
            and bool(np.array_equal(self._counters, other._counters))
        )

    def _drop(self) -> None:
        self._counters = np.zeros(0, dtype=np.uint8)
        self._total = 0

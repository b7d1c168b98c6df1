"""Bidirectional map between symbol strings and dense integer indices.

Strings are length-delimited sequences of fixed-width unsigned symbols
(the alphabet is arbitrary; pick the symbol width at construction).
The first distinct string inserted gets index 0, the next 1, and so on,
so n strings always occupy exactly the indices 0..n-1.

There are no nodes and no shared prefixes: one dict maps each whole
string, as a tuple of ints, to its index, and one list holds the same
tuples in index order for the inverse map.  The trie registers one
accounting block.  Strings cannot be deleted: removal would punch holes
in the dense numbering.
"""

import struct

from . import wire
from .accounting import Container
from .errors import DecodeFault, DomainFault, RangeFault

_STRING_BYTES = 24  # dict entry and list slot of one string; its symbols add symbol_width each
_STRUCT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


class Trie(Container):
    """Interns symbol sequences as consecutive unsigned integers."""

    __slots__ = ("symbol_width", "_index", "_strings", "_symbol_count")

    def __init__(self, symbol_width: int = 4):
        if symbol_width not in (1, 2, 4, 8):
            raise DomainFault("symbol_width must be 1, 2, 4, or 8, got %r" % symbol_width)
        self.symbol_width = symbol_width
        self._index: dict[tuple[int, ...], int] = {}
        self._strings: list[tuple[int, ...]] = []
        self._symbol_count = 0
        super().__init__(self._payload())

    def _payload(self) -> int:
        return _STRING_BYTES * len(self._strings) + self.symbol_width * self._symbol_count

    def _checked(self, string: tuple) -> tuple[int, ...]:
        """Return `string` as plain ints; RangeFault on the first symbol that does not fit.

        Only strings that missed the dict need this: a stored string holds no bad symbol.
        """
        width = self.symbol_width
        try:
            for symbol in string:
                if symbol >> 8 * width:  # also true for every negative int
                    raise RangeFault("symbol %d does not fit in %d bytes" % (symbol, width))
        except TypeError:  # `>>` refuses floats: 6.0 stands for the symbol 6, and 6.5 for none
            for symbol in string:
                if symbol % 1:
                    raise DomainFault("symbol %r is not an integer" % (symbol,)) from None
            return self._checked(tuple(map(int, string)))
        return tuple(map(int, string))

    def __len__(self) -> int:
        return len(self._strings)

    def index_of(self, symbols) -> int:
        """Return the index of the sequence, interning it if new."""
        string = tuple(symbols)
        index = self._index.get(string)
        if index is None:
            string = self._checked(string)
            index = self._index[string] = len(self._strings)
            self._strings.append(string)
            self._symbol_count += len(string)
            self._resize(self._payload())
        return index

    def find(self, symbols) -> int | None:
        """Return the sequence's index if already interned, else None."""
        string = tuple(symbols)
        index = self._index.get(string)
        if index is None:
            self._checked(string)
        return index

    def string_of(self, index: int) -> tuple[int, ...]:
        """Return the exact sequence that was assigned `index`."""
        if not 0 <= index < len(self._strings):
            raise RangeFault("index %d out of range for %d strings" % (index, len(self._strings)))
        return self._strings[index]

    def write(self, stream) -> None:
        """Write the string count, then each interned string in index order.

        Each string is one run of records (`wire.write_records`): its
        8-byte length, then its symbols, each `symbol_width` bytes, all
        big-endian.
        """
        code = _STRUCT_CODES[self.symbol_width]
        write_records = wire.write_records
        wire.write_uint(stream, len(self._strings), 8)
        for string in self._strings:
            write_records(stream, len(string), struct.pack(">%d%s" % (len(string), code), *string))

    @classmethod
    def read(cls, stream, symbol_width: int) -> "Trie":
        """Inverse of write: re-intern every string in index order."""
        trie = cls(symbol_width)
        code = _STRUCT_CODES[symbol_width]
        index, strings = trie._index, trie._strings
        read_records = wire.read_records
        with trie._destroy_on_error():
            count = wire.read_uint(stream, 8)
            for expected in range(count):
                length, raw = read_records(stream, symbol_width)
                string = struct.unpack(">%d%s" % (length, code), raw)
                assigned = index.setdefault(string, expected)
                if assigned != expected:
                    raise DecodeFault(
                        "duplicate string in stream: index %d re-assigned as %d"
                        % (expected, assigned)
                    )
                strings.append(string)
            trie._symbol_count = sum(map(len, strings))
            trie._resize(trie._payload())
        return trie

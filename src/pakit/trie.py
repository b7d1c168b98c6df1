"""Bidirectional map between symbol strings and dense integer indices.

Strings are length-delimited sequences of fixed-width unsigned symbols
(the alphabet is arbitrary; pick the symbol width at construction).
The first distinct string inserted gets index 0, the next 1, and so on,
so n strings always occupy exactly the indices 0..n-1.

There are no nodes and no shared prefixes: each string is stored inline
as its packed form, its symbols as big-endian `symbol_width`-byte
unsigned integers (Askitis & Zobel 2005 store strings inline in the
same way).  One dict maps each packed string to its index, and one list
holds the packed strings in index order for the inverse map;
`string_of` unpacks on demand and returns plain ints.  At width 1 a
`bytes` argument is its own packed form, so looking it up takes one
dict lookup.  Any other argument is made a tuple, then packed by the
`struct.Struct` that `wire.uint_struct` caches per width and length,
the one packer at every width; a symbol that does not pack sends the
string through the symbol check, which takes `6.0` as `6` and refuses
`6.5`, anything that is not a number, negatives and symbols too wide.
The trie registers one accounting block.  Strings cannot be deleted:
removal would punch holes in the dense numbering.

A stream holds the string count, every string's symbol count as one
`wire` column, and then the packed strings joined with nothing between
them, which is the list of packed strings as stored; KenLM's binary
vocabulary is likewise one block of strings (Heafield 2011).  So a
string costs its symbols and one column entry on the wire, and `read`
takes one call for the column and one for the symbols.  Trie streams
written before this layout, with an 8-byte length before each string,
do not read.
"""

import struct
from operator import attrgetter

from . import wire
from .accounting import Container, checked_size
from .errors import DecodeFault, DomainFault, RangeFault

_STRING_BYTES = 24  # dict entry and list slot of one string; its symbols add symbol_width each


class Trie(Container):
    """Interns symbol sequences as consecutive unsigned integers."""

    __slots__ = ("_symbol_width", "_index", "_keys", "_key_bytes", "_key_type")

    symbol_width = property(attrgetter("_symbol_width"), doc="The size of every symbol in bytes; read-only.")

    def __init__(self, symbol_width: int = 4):
        if checked_size("symbol_width", symbol_width) not in wire.WIDTHS:
            raise DomainFault("symbol_width must be 1, 2, 4, or 8, got %r" % symbol_width)
        self._symbol_width = symbol_width
        self._index: dict[bytes, int] = {}
        self._keys: list[bytes] = []
        self._key_bytes = 0  # symbol_width per symbol held
        self._key_type = bytes if symbol_width == 1 else None  # the argument type that is its own key
        super().__init__(self._payload())

    def _payload(self) -> int:
        return _STRING_BYTES * len(self._keys) + self._key_bytes

    def _key(self, symbols) -> bytes:
        """The packed form of `symbols`, any iterable of integral symbols."""
        string = tuple(symbols)
        layout = wire.uint_struct(self._symbol_width, len(string))
        try:
            return layout.pack(*string)
        except (TypeError, ValueError, struct.error):
            return layout.pack(*self._checked(string))

    def _checked(self, string: tuple) -> tuple[int, ...]:
        """Return `string` as plain ints; RangeFault on the first symbol that does not fit."""
        width = self._symbol_width
        try:
            for symbol in string:
                if symbol >> 8 * width:  # also true for every negative int
                    raise RangeFault("symbol %d does not fit in %d bytes" % (symbol, width))
        except TypeError:  # `>>` refuses floats: 6.0 stands for the symbol 6, and 6.5 for none
            for symbol in string:
                try:
                    whole = int(symbol) == symbol
                except (TypeError, ValueError, OverflowError):  # None, 'a', b'a', nan, inf
                    whole = False
                if not whole:
                    raise DomainFault("symbol %r is not an integer" % (symbol,)) from None
            return self._checked(tuple(map(int, string)))
        return tuple(map(int, string))

    def __len__(self) -> int:
        return len(self._keys)

    def index_of(self, symbols) -> int:
        """Return the index of the sequence, interning it if new."""
        if type(symbols) is not self._key_type:
            symbols = self._key(symbols)
        index = self._index.get(symbols)
        if index is None:
            index = self._index[symbols] = len(self._keys)
            self._keys.append(symbols)
            self._key_bytes += len(symbols)
            self._resize(self._payload())
        return index

    def find(self, symbols) -> int | None:
        """Return the sequence's index if already interned, else None."""
        if type(symbols) is not self._key_type:
            symbols = self._key(symbols)
        return self._index.get(symbols)

    def string_of(self, index: int) -> tuple[int, ...]:
        """Return the exact sequence that was assigned `index`."""
        if not 0 <= index < len(self._keys):
            raise RangeFault("index %d out of range for %d strings" % (index, len(self._keys)))
        key, width = self._keys[index], self._symbol_width
        if width == 1:
            return tuple(key)
        return wire.uint_struct(width, len(key) // width).unpack(key)

    def write(self, stream) -> None:
        """Write the string count, every string's symbol count, then every string's symbols.

        The count is 8 bytes, big-endian.  The symbol counts, in index
        order, are one `wire` column (`wire.write_uints`): one width byte,
        the narrowest of 1, 2, 4 and 8 that holds the longest string, then
        each count big-endian at that width.  The symbols follow as the
        packed strings joined, each symbol `symbol_width` bytes big-endian,
        with no framing per string.  So an empty trie is its 8-byte count
        alone, an empty column having no width byte.
        """
        keys, width = self._keys, self._symbol_width
        lengths = list(map(len, keys))
        if width > 1:
            lengths = [length // width for length in lengths]
        wire.write_uint(stream, len(keys), 8)
        wire.write_uints(stream, wire.uint_array(lengths))
        stream.write(b"".join(keys))

    @classmethod
    def read(cls, stream, symbol_width: int) -> "Trie":
        """Inverse of write: one read for the column of symbol counts and one for the symbols."""
        trie = cls(symbol_width)
        with trie._destroy_on_error():
            count = wire.read_uint(stream, 8)
            lengths = wire.read_uints(stream, count)
            if symbol_width > 1:
                lengths = [length * symbol_width for length in lengths]
            payload = wire.read_exact(stream, sum(lengths))
            # one Struct of `<length>s` fields cuts every string out of the payload in one call
            keys = list(struct.Struct("%ds" * count % tuple(lengths)).unpack(payload))
            index = dict(zip(keys, range(count)))
            if len(index) != count:
                index = {}
                for expected, key in enumerate(keys):
                    assigned = index.setdefault(key, expected)
                    if assigned != expected:
                        raise DecodeFault(
                            "duplicate string in stream: index %d re-assigned as %d" % (expected, assigned)
                        )
            trie._index, trie._keys, trie._key_bytes = index, keys, len(payload)
            trie._resize(trie._payload())
        return trie

"""Bidirectional map between symbol strings and dense integer indices.

Strings are length-delimited sequences of fixed-width unsigned symbols
(the alphabet is arbitrary; pick the symbol width at construction).
The first distinct string inserted gets index 0, the next 1, and so on,
so n strings always occupy exactly the indices 0..n-1.  The inverse map
walks parent links from the terminal node back to the root.

Nodes are dense ids (the root, which spells the empty string, is 0) and
live in flat columns: each node's parent, incoming symbol and assigned
index.  Every edge of the whole trie sits in one dict keyed by the
packed pair `parent << (8 * symbol_width) | symbol`, so a step down the
trie is one dict lookup and the trie registers one accounting block.
Strings cannot be deleted: removal would punch holes in the dense
numbering.
"""

import struct
from array import array

from . import wire
from .accounting import Container
from .errors import DecodeFault, DomainFault, RangeFault

_NODE_BYTES = 16  # parent id and assigned index; the symbol adds symbol_width
_EDGE_BYTES = 16  # packed (parent, symbol) key and child id
_STRUCT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}
_END = object()


class Trie(Container):
    """Interns symbol sequences as consecutive unsigned integers."""

    __slots__ = (
        "symbol_width", "_shift", "_edges", "_parents", "_symbols", "_indices",
        "_index_to_node",
    )

    def __init__(self, symbol_width: int = 4):
        if symbol_width not in (1, 2, 4, 8):
            raise DomainFault("symbol_width must be 1, 2, 4, or 8, got %r" % symbol_width)
        self.symbol_width = symbol_width
        self._shift = 8 * symbol_width
        self._edges: dict[int, int] = {}
        self._parents = array("q", [-1])
        self._symbols = array("Q", [0])
        self._indices = array("q", [-1])
        self._index_to_node = array("q")
        super().__init__(self._payload())

    def _payload(self) -> int:
        return (
            (_NODE_BYTES + self.symbol_width) * len(self._parents)
            + _EDGE_BYTES * len(self._edges)
            + 8 * len(self._index_to_node)
        )

    def _range_fault(self, symbol: int) -> RangeFault:
        return RangeFault("symbol %d does not fit in %d bytes" % (symbol, self.symbol_width))

    def __len__(self) -> int:
        self._check_live()
        return len(self._index_to_node)

    def index_of(self, symbols) -> int:
        """Return the index of the sequence, interning it if new."""
        self._check_live()
        edges, shift = self._edges, self._shift
        node = 0
        rest = iter(symbols)
        for symbol in rest:
            if symbol < 0 or symbol >> shift:
                raise self._range_fault(symbol)
            child = edges.get(node << shift | symbol)
            if child is None:
                return self._grow(node, symbol, rest)
            node = child
        index = self._indices[node]
        if index < 0:
            index = self._assign(node)
            self._resize(self._payload())
        return index

    def _assign(self, node: int) -> int:
        index = self._indices[node] = len(self._index_to_node)
        self._index_to_node.append(node)
        return index

    def _grow(self, node: int, symbol: int, rest) -> int:
        """Add the path spelling `symbol` then `rest` below `node`; return its index.

        Nodes made before a symbol that does not fit stay interned and
        counted, like the prefixes of any other string.
        """
        edges, shift = self._edges, self._shift
        parents, symbols, indices = self._parents, self._symbols, self._indices
        try:
            while True:
                child = len(parents)
                edges[node << shift | symbol] = child
                parents.append(node)
                symbols.append(symbol)
                indices.append(-1)
                node = child
                symbol = next(rest, _END)
                if symbol is _END:
                    return self._assign(node)
                if symbol < 0 or symbol >> shift:
                    raise self._range_fault(symbol)
        finally:
            self._resize(self._payload())

    def find(self, symbols) -> int | None:
        """Return the sequence's index if already interned, else None."""
        self._check_live()
        edges, shift = self._edges, self._shift
        node = 0
        for symbol in symbols:
            if symbol < 0 or symbol >> shift:
                raise self._range_fault(symbol)
            node = edges.get(node << shift | symbol)
            if node is None:
                return None
        index = self._indices[node]
        return None if index < 0 else index

    def string_of(self, index: int) -> tuple[int, ...]:
        """Return the exact sequence that was assigned `index`."""
        self._check_live()
        if not 0 <= index < len(self._index_to_node):
            raise RangeFault(
                "index %d out of range for %d strings" % (index, len(self._index_to_node))
            )
        parents, symbols = self._parents, self._symbols
        spelled = []
        node = self._index_to_node[index]
        while node:
            spelled.append(symbols[node])
            node = parents[node]
        spelled.reverse()
        return tuple(spelled)

    def write(self, stream) -> None:
        """Write the string count, then each interned string in index order.

        Each string is one run of records (`wire.write_records`): its
        8-byte length, then its symbols, each `symbol_width` bytes, all
        big-endian.
        """
        self._check_live()
        code = _STRUCT_CODES[self.symbol_width]
        wire.write_uint(stream, len(self), 8)
        for index in range(len(self)):
            symbols = self.string_of(index)
            packed = struct.pack(">%d%s" % (len(symbols), code), *symbols)
            wire.write_records(stream, len(symbols), packed)

    @classmethod
    def read(cls, stream, symbol_width: int) -> "Trie":
        """Inverse of write: re-intern every string in index order."""
        trie = cls(symbol_width)
        code = _STRUCT_CODES[symbol_width]
        with trie._destroy_on_error():
            count = wire.read_uint(stream, 8)
            for expected in range(count):
                length, raw = wire.read_records(stream, symbol_width)
                assigned = trie.index_of(struct.unpack(">%d%s" % (length, code), raw))
                if assigned != expected:
                    raise DecodeFault(
                        "duplicate string in stream: index %d re-assigned as %d"
                        % (expected, assigned)
                    )
        return trie

    def _drop(self) -> None:
        self._edges = {}
        self._parents = array("q")
        self._symbols = array("Q")
        self._indices = array("q")
        self._index_to_node = array("q")

"""Memory-minimal sorted association table.

Entries live in one contiguous array of (key, datum) byte pairs kept
strictly sorted by key, so inserts and deletes find their rank in
O(log n) and shift the tail in O(n).  Storage is always exactly
entry_count * pair_size bytes plus a small header, which is the point:
this table trades mutation speed for the smallest possible footprint,
which suits tables that are built once and then only read.

Keys and data are opaque fixed-size byte blocks, and keys have one
order, unsigned bytes (see the class docstring).

A lookup reads a rank index, an open-addressing table of pair ranks
(KenLM's PROBING structure; Heafield 2011, "KenLM: Faster and Smaller
Language Model Queries"), searched by linear probing from
`hash(key) & mask`.  Its bytes are 4 * c for the smallest power of two
c with entries <= `hashing.MAX_LOAD` * c.  Up to 0xFFFF entries they
hold an `array('H')` of 2c slots, at half that load; from 65,536
entries on, an `array('I')` of c slots.  A slot holds rank + 1, so 0 is
a free slot and a zeroed array is an empty index.  A lookup is expected
O(1), one Python frame with no numpy call, and it reads key and datum
of each probed pair with one unpack.  The first lookup after a size
change builds the index in one pass over the keys, placing each rank in
turn; every insert of a new key and every delete drops it, through the
one method that changes the size, and a replace keeps it.  The index
follows the per-process salt of `hash(bytes)`, so its layout differs
from run to run while its answers do not.

The index is a cache derived from the pairs.  It is not accounted, and
`stats()` reports its bytes.  On the 36,098 pairs (433,176 B) of the
seed-101 `ngram-build` model it holds 262,144 B in 131,072 slots, at
load 0.28, and its build peaks 262,806 B above the live table under
`tracemalloc`, since the keys stream from the pair buffer and only the
index is held.  A held-out lookup there reads 1.23 slots.  A build
takes 9-15 ms there on a shared 2-core VM, which a table mutated
between lookups pays each time; no workload does.

One Struct, `<key_size>s<datum_size>x`, reads every key: its
`unpack_from` gives the key at each step of `_search`, the bisect over
ranks that insert and delete use, and its `iter_unpack` streams the keys
to the index build.  numpy runs only in the order check when a table is
read, on a strided view of the pair buffer that it drops before
returning.  No view outlives the call: `np.ndarray(buffer=...)` does not
pin a bytearray, so a view kept across a resize would read freed memory.
"""

import struct
from array import array
from bisect import bisect_left
from typing import NamedTuple

import numpy as np

from . import wire
from .accounting import Container
from .errors import ContractFault, DecodeFault, DomainFault, RangeFault
from .hashing import MAX_LOAD


class CompactStats(NamedTuple):
    """A CompactTable's lookup index: entries, slots, the longest probe and its bytes.

    `capacity` counts slots, each 2 bytes while the table holds at most
    0xFFFF entries and 4 bytes from then on; a slot holds rank + 1, and
    0 marks a free one.  Slots and bytes are 0 before the index is built.
    The longest probe is the most slots a lookup of a stored key reads,
    1 for a key in its home slot, 0 when the index is empty or not
    built.  The bytes are the index's slots, which no accounted block
    counts.
    """

    entries: int
    capacity: int
    longest_probe: int
    index_bytes: int


class CompactTable(Container):
    """Sorted (key, datum) table over fixed-size byte blocks.

    Key order: unsigned lexicographic bytes (`memcmp` order), which for
    big-endian unsigned integers is numeric order, and the only order.
    For another, encode the keys so that byte order is that order, as a
    B-tree's normalized keys do: flip the top bit of signed big-endian
    integers (offset binary), complement every byte for reverse order,
    byteswap little-endian integers to big-endian.

    `lookup` reads through a hash index of ranks that the first lookup
    after a size change builds, so a table that is built, then only read,
    pays one build; `insert` and `delete` search the sorted run itself.
    """

    __slots__ = ("key_size", "datum_size", "_pairs", "_mods", "_index", "_key_reader", "_pair_from")

    def __init__(self, key_size: int, datum_size: int):
        if key_size < 1:
            raise DomainFault("key_size must be >= 1, got %d" % key_size)
        if datum_size < 0:
            raise DomainFault("datum_size must be >= 0, got %d" % datum_size)
        self.key_size = key_size
        self.datum_size = datum_size
        self._pairs = bytearray()
        self._mods = 0  # new-key inserts and deletes so far, for the iteration rule
        self._index = None  # built by the first lookup after a size change
        # pair readers that copy into bytes and hold no export of _pairs after
        # the call, or, for iter_unpack, after the last key
        self._key_reader = struct.Struct("%ds%dx" % (key_size, datum_size))
        self._pair_from = struct.Struct("%ds%ds" % (key_size, datum_size)).unpack_from
        super().__init__()

    def _key_at(self, rank: int) -> bytes:
        (key,) = self._key_reader.unpack_from(self._pairs, rank * (self.key_size + self.datum_size))
        return key

    def _rank_index(self) -> array:
        """Every rank + 1 of _pairs placed by linear probing from hash(key) & mask; 0 is a free slot."""
        capacity, count = 1, len(self)
        while count > MAX_LOAD * capacity:
            capacity *= 2
        # 4 * capacity bytes, as twice the 2-byte slots while rank + 1 fits them
        code = "I"
        if count <= 0xFFFF:
            code, capacity = "H", 2 * capacity
        # from [0], not bytes(n): a temporary of the index's size would double the build's peak
        index, mask = array(code, [0]) * capacity, capacity - 1
        for stored, (key,) in enumerate(self._key_reader.iter_unpack(self._pairs), 1):
            slot = hash(key) & mask
            while index[slot]:
                slot = (slot + 1) & mask
            index[slot] = stored
        return index

    def _search(self, key: bytes) -> tuple[bool, int]:
        """Binary search: (True, rank) if present, else (False, insertion rank)."""
        rank = bisect_left(range(len(self)), key, key=self._key_at)
        # past the last pair, startswith is False
        return self._pairs.startswith(key, rank * (self.key_size + self.datum_size)), rank

    def __len__(self) -> int:
        return len(self._pairs) // (self.key_size + self.datum_size)

    def lookup(self, key):
        """Return the datum bytes paired with `key`, or None if absent."""
        key_size = self.key_size
        if type(key) is not bytes or len(key) != key_size:
            key = self._check_size(key, key_size, "key")
        index = self._index
        if index is None:
            index = self._index = self._rank_index()
        mask = len(index) - 1  # the probe loop is kept inline, so a lookup is one Python frame
        slot = hash(key) & mask
        rank = index[slot]
        pair_from, pairs, pair_size = self._pair_from, self._pairs, key_size + self.datum_size
        while rank:  # a slot holds rank + 1, and 0 is free
            stored, datum = pair_from(pairs, (rank - 1) * pair_size)
            if stored == key:
                return datum
            slot = (slot + 1) & mask
            rank = index[slot]
        return None

    def __contains__(self, key) -> bool:
        return self.lookup(key) is not None

    def insert(self, key, datum) -> bool:
        """Map key to datum; returns True if an existing datum was replaced."""
        key = self._check_size(key, self.key_size, "key")
        datum = self._check_size(datum, self.datum_size, "datum")
        found, rank = self._search(key)
        pair_size = self.key_size + self.datum_size
        offset = rank * pair_size
        if found:
            self._pairs[offset + self.key_size : offset + pair_size] = datum
            return True
        self._splice(offset, offset, key + datum)
        return False

    def delete(self, key) -> bool:
        """Remove key if present; returns True iff it was there."""
        found, rank = self._search(self._check_size(key, self.key_size, "key"))
        if not found:
            return False
        pair_size = self.key_size + self.datum_size
        offset = rank * pair_size
        self._splice(offset, offset + pair_size, b"")
        return True

    def _splice(self, start: int, stop: int, pairs: bytes) -> None:
        """Put `pairs` in place of the bytes from start to stop: the one path that changes the size."""
        self._index = None
        self._pairs[start:stop] = pairs
        self._mods += 1
        self._resize(len(self._pairs))

    def stats(self) -> CompactStats:
        """The lookup index now, found by walking its slots of rank + 1 (0 free); nothing is counted for this."""
        index, entries = self._index, len(self)
        if index is None:
            return CompactStats(entries, 0, 0, 0)
        mask, longest = len(index) - 1, 0
        for slot, stored in enumerate(index):
            if stored:
                longest = max(longest, (slot - hash(self._key_at(stored - 1))) & mask)
        return CompactStats(
            entries, len(index), longest + 1 if entries else 0, len(index) * index.itemsize
        )

    def nth(self, rank: int) -> tuple[bytes, bytes]:
        """Return the rank-th smallest (key, datum); 0 <= rank < len."""
        if not 0 <= rank < len(self):
            raise RangeFault("rank %d out of range for %d entries" % (rank, len(self)))
        return self._pair_from(self._pairs, rank * (self.key_size + self.datum_size))

    def items(self):
        """Iterator over (key, datum) pairs in key order."""
        return self._pairs_from(len(self), self._mods)

    def _pairs_from(self, count: int, mods: int):
        # _mods, not the length: a delete then an insert moves the pairs but not the size
        pair_from, pair_size = self._pair_from, self.key_size + self.datum_size
        for offset in range(0, count * pair_size, pair_size):
            if self._mods != mods:  # reads a slot each step: a destroyed table faults too
                raise ContractFault("CompactTable changed size during iteration")
            yield pair_from(self._pairs, offset)
        if self._mods != mods:  # a change after the last pair
            raise ContractFault("CompactTable changed size during iteration")

    def write(self, stream) -> None:
        """Write 8-byte entry count, then the raw sorted pair bytes."""
        wire.write_records(stream, len(self), self._pairs)

    @classmethod
    def read(cls, stream, key_size: int, datum_size: int) -> "CompactTable":
        """Inverse of write; the sizes are supplied by the caller."""
        table = cls(key_size, datum_size)
        with table._destroy_on_error():
            table._pairs = bytearray(wire.read_records(stream, key_size + datum_size)[1])
            rank = table._first_unsorted_rank()  # stream must already obey the key order
            if rank is not None:
                raise DecodeFault("stream keys not strictly sorted at rank %d" % rank)
        table._resize(len(table._pairs))
        return table

    def _first_unsorted_rank(self):
        """Smallest rank whose key is not above the key before it, or None."""
        # numpy compares `S` values with trailing NUL bytes stripped, which
        # for keys of one fixed width is exactly lexicographic byte order
        keys = np.ndarray(
            (len(self),), dtype="S%d" % self.key_size,
            buffer=self._pairs, strides=(self.key_size + self.datum_size,),
        )
        out_of_order = np.flatnonzero(keys[1:] <= keys[:-1])
        return int(out_of_order[0]) + 1 if out_of_order.size else None

"""Memory-minimal sorted association table.

Entries live in one contiguous array of (key, datum) byte pairs kept
strictly sorted by key, so lookups are O(log n) binary searches while
inserts and deletes shift the tail in O(n).  Storage is always exactly
entry_count * pair_size bytes plus a small header, which is the point:
this table trades mutation speed for the smallest possible footprint,
which suits tables that are built once and then only read.

Keys and data are opaque fixed-size byte blocks, and keys have one
order, unsigned bytes (see the class docstring).

A lookup bisects a list of fence keys, every FENCE_STRIDE-th key as
exact `bytes` (a sparse index over the sorted run, as in the fence keys
of a B-tree; Graefe 2011, "Modern B-Tree Techniques"), to find the
key's block, then runs one `bytearray.find` over that block's pairs,
passing over any match off a pair boundary (across two pairs or inside
a datum).  The first lookup after a size
change builds the fences in one numpy pass and every later lookup
makes no numpy call; every insert of a new key and every delete drops
them.  So lookups are cheap and mutations are not: the lookup after
each one rebuilds the fences in O(n / FENCE_STRIDE).  The fences are a
cache derived from the pairs and are not accounted.

Insert and delete use the plain search, `_search`, a bisect over ranks
that reads one key per step.  numpy runs only in whole-run passes, the
fence build and the order check when a table is read, each on a strided
view of the pair buffer that it drops before returning.  No view
outlives the call: `np.ndarray(buffer=...)` does not pin a bytearray,
so a view kept across a resize would read freed memory.
"""

import struct
from bisect import bisect_left, bisect_right

import numpy as np

from . import wire
from .accounting import Container
from .errors import ContractFault, DecodeFault, DomainFault, RangeFault

FENCE_STRIDE = 32  # pairs per fence block


class CompactTable(Container):
    """Sorted (key, datum) table over fixed-size byte blocks.

    Key order: unsigned lexicographic bytes (`memcmp` order), which for
    big-endian unsigned integers is numeric order, and the only order.
    For another, encode the keys so that byte order is that order, as a
    B-tree's normalized keys do: flip the top bit of signed big-endian
    integers (offset binary), complement every byte for reverse order,
    byteswap little-endian integers to big-endian.
    """

    __slots__ = (
        "key_size", "datum_size", "_pairs", "_count", "_mods", "_fences",
        "_fence_span", "_key_from", "_datum_from", "_pair_from",
    )

    def __init__(self, key_size: int, datum_size: int):
        if key_size < 1:
            raise DomainFault("key_size must be >= 1, got %d" % key_size)
        if datum_size < 0:
            raise DomainFault("datum_size must be >= 0, got %d" % datum_size)
        self.key_size = key_size
        self.datum_size = datum_size
        self._pairs = bytearray()
        self._count = 0
        self._mods = 0  # new-key inserts and deletes so far, for the iteration rule
        self._fences = None  # built by the first lookup after a size change
        self._fence_span = FENCE_STRIDE * (key_size + datum_size)  # bytes per fence block
        # slice readers that copy once into bytes and hold no export of _pairs after the call
        self._key_from = struct.Struct("%ds" % key_size).unpack_from
        self._datum_from = struct.Struct("%ds" % datum_size).unpack_from
        self._pair_from = struct.Struct("%ds%ds" % (key_size, datum_size)).unpack_from
        super().__init__()

    def _key_at(self, rank: int) -> bytes:
        (key,) = self._key_from(self._pairs, rank * (self.key_size + self.datum_size))
        return key

    def _fence_keys(self) -> list:
        """Every FENCE_STRIDE-th key of _pairs as exact bytes, the first key first.

        Read through a `V<key_size>` view, which keeps trailing NUL bytes
        that an `S` value would drop.
        """
        fences = np.ndarray(
            (-(-self._count // FENCE_STRIDE),), dtype="V%d" % self.key_size,
            buffer=self._pairs, strides=(self._fence_span,),
        )
        return fences.tolist()

    def _search(self, key: bytes) -> tuple[bool, int]:
        """Binary search: (True, rank) if present, else (False, insertion rank)."""
        rank = bisect_left(range(self._count), key, key=self._key_at)
        offset = rank * (self.key_size + self.datum_size)
        return rank < self._count and self._pairs.startswith(key, offset), rank

    def __len__(self) -> int:
        return self._count

    def lookup(self, key):
        """Return the datum bytes paired with `key`, or None if absent."""
        key_size = self.key_size
        if type(key) is not bytes or len(key) != key_size:
            key = self._check_size(key, key_size, "key")
        fences = self._fences
        if fences is None:
            fences = self._fences = self._fence_keys()
        span = self._fence_span  # the fence search is kept inline, so a lookup is one Python frame
        start = (bisect_right(fences, key) - 1) * span
        if start < 0:  # below the first key
            return None
        pairs, pair_size = self._pairs, key_size + self.datum_size
        at = pairs.find(key, start, start + span)
        while at % pair_size and at >= 0:  # a match off a pair boundary is no key
            at = pairs.find(key, at + 1, start + span)
        if at < 0:
            return None
        (datum,) = self._datum_from(pairs, at + key_size)
        return datum

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
        self._fences = None
        self._pairs[offset:offset] = key + datum
        self._count += 1
        self._mods += 1
        self._resize(len(self._pairs))
        return False

    def delete(self, key) -> bool:
        """Remove key if present; returns True iff it was there."""
        found, rank = self._search(self._check_size(key, self.key_size, "key"))
        if not found:
            return False
        pair_size = self.key_size + self.datum_size
        offset = rank * pair_size
        self._fences = None
        del self._pairs[offset : offset + pair_size]
        self._count -= 1
        self._mods += 1
        self._resize(len(self._pairs))
        return True

    def nth(self, rank: int) -> tuple[bytes, bytes]:
        """Return the rank-th smallest (key, datum); 0 <= rank < len."""
        if not 0 <= rank < self._count:
            raise RangeFault("rank %d out of range for %d entries" % (rank, self._count))
        return self._pair_from(self._pairs, rank * (self.key_size + self.datum_size))

    def items(self):
        """Iterator over (key, datum) pairs in key order."""
        return self._pairs_from(self._count, self._mods)

    def _pairs_from(self, count: int, mods: int):
        # _mods, not _count: a delete then an insert moves the pairs but not the size
        pair_from, pair_size = self._pair_from, self.key_size + self.datum_size
        for offset in range(0, count * pair_size, pair_size):
            if self._mods != mods:  # reads a slot each step: a destroyed table faults too
                raise ContractFault("CompactTable changed size during iteration")
            yield pair_from(self._pairs, offset)
        if self._mods != mods:  # a change after the last pair
            raise ContractFault("CompactTable changed size during iteration")

    def write(self, stream) -> None:
        """Write 8-byte entry count, then the raw sorted pair bytes."""
        wire.write_records(stream, self._count, self._pairs)

    @classmethod
    def read(cls, stream, key_size: int, datum_size: int) -> "CompactTable":
        """Inverse of write; the sizes are supplied by the caller."""
        table = cls(key_size, datum_size)
        with table._destroy_on_error():
            table._count, payload = wire.read_records(stream, key_size + datum_size)
            table._pairs = bytearray(payload)
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
            (self._count,), dtype="S%d" % self.key_size,
            buffer=self._pairs, strides=(self.key_size + self.datum_size,),
        )
        out_of_order = np.flatnonzero(keys[1:] <= keys[:-1])
        return int(out_of_order[0]) + 1 if out_of_order.size else None

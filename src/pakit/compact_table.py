"""Memory-minimal sorted association table.

Entries live in one contiguous array of (key, datum) byte pairs kept
strictly sorted by key, so lookups are O(log n) binary searches while
inserts and deletes shift the tail in O(n).  Storage is always exactly
entry_count * pair_size bytes plus a small header, which is the point:
this table trades mutation speed for the smallest possible footprint,
which suits tables that are built once and then only read.

Keys and data are opaque fixed-size byte blocks.  The default key order
is lexicographic, which for big-endian fixed-width unsigned integers
coincides with numeric order.  Under that order the binary search, and
the order check when a table is read, run in numpy on a zero-copy view
of the same pair buffer (key field `S<key_size>`, datum field
`V<datum_size>`); a caller-supplied `key_compare` is searched in Python.
The view is cached between lookups and dropped before every resize of
the buffer, which a live view would block.
"""

import struct

import numpy as np

from . import wire
from .accounting import Container
from .errors import DecodeFault, DomainFault, RangeFault


class CompactTable(Container):
    """Sorted (key, datum) table over fixed-size byte blocks."""

    __slots__ = (
        "key_size", "datum_size", "key_compare", "_pairs", "_count", "_keys",
        "_key_from", "_datum_from",
    )

    def __init__(self, key_size: int, datum_size: int, key_compare=None):
        if key_size < 1:
            raise DomainFault("key_size must be >= 1, got %d" % key_size)
        if datum_size < 0:
            raise DomainFault("datum_size must be >= 0, got %d" % datum_size)
        self.key_size = key_size
        self.datum_size = datum_size
        self.key_compare = key_compare
        self._pairs = bytearray()
        self._count = 0
        self._keys = None  # cached key-field view of _pairs; None whenever _pairs may resize
        # slice readers that copy once into bytes and hold no export of _pairs after the call
        self._key_from = struct.Struct("%ds" % key_size).unpack_from
        self._datum_from = struct.Struct("%ds" % datum_size).unpack_from
        super().__init__()

    def _key_at(self, rank: int) -> bytes:
        (key,) = self._key_from(self._pairs, rank * (self.key_size + self.datum_size))
        return key

    def _datum_at(self, rank: int) -> bytes:
        (datum,) = self._datum_from(self._pairs, rank * (self.key_size + self.datum_size) + self.key_size)
        return datum

    def _key_view(self):
        """The keys of _pairs as a zero-copy numpy `S<key_size>` array, cached.

        numpy compares `S` values with trailing NUL bytes stripped, which
        for keys of one fixed width is exactly lexicographic byte order.
        """
        if self._keys is None:
            if self.datum_size:
                pair = np.dtype([("key", "S%d" % self.key_size), ("datum", "V%d" % self.datum_size)])
                self._keys = np.frombuffer(self._pairs, dtype=pair)["key"]
            else:
                self._keys = np.frombuffer(self._pairs, dtype="S%d" % self.key_size)
        return self._keys

    def _search(self, key: bytes) -> tuple[bool, int]:
        """Binary search: (True, rank) if present, else (False, insertion rank)."""
        compare = self.key_compare
        if compare is None:
            rank = int(self._key_view().searchsorted(key))
            offset = rank * (self.key_size + self.datum_size)
            return rank < self._count and self._pairs.startswith(key, offset), rank
        lo, hi = 0, self._count
        while lo < hi:
            mid = (lo + hi) // 2
            order = compare(key, self._key_at(mid))
            if order == 0:
                return True, mid
            if order < 0:
                hi = mid
            else:
                lo = mid + 1
        return False, lo

    def __len__(self) -> int:
        return self._count

    def lookup(self, key):
        """Return the datum bytes paired with `key`, or None if absent."""
        self._check_live()
        found, rank = self._search(self._check_size(key, self.key_size, "key"))
        return self._datum_at(rank) if found else None

    def __contains__(self, key) -> bool:
        return self.lookup(key) is not None

    def insert(self, key, datum) -> bool:
        """Map key to datum; returns True if an existing datum was replaced."""
        self._check_live()
        key = self._check_size(key, self.key_size, "key")
        datum = self._check_size(datum, self.datum_size, "datum")
        found, rank = self._search(key)
        pair_size = self.key_size + self.datum_size
        offset = rank * pair_size
        if found:
            self._pairs[offset + self.key_size : offset + pair_size] = datum
            return True
        self._keys = None
        self._pairs[offset:offset] = key + datum
        self._count += 1
        self._resize(len(self._pairs))
        return False

    def delete(self, key) -> bool:
        """Remove key if present; returns True iff it was there."""
        self._check_live()
        found, rank = self._search(self._check_size(key, self.key_size, "key"))
        if not found:
            return False
        pair_size = self.key_size + self.datum_size
        offset = rank * pair_size
        self._keys = None
        del self._pairs[offset : offset + pair_size]
        self._count -= 1
        self._resize(len(self._pairs))
        return True

    def nth(self, rank: int) -> tuple[bytes, bytes]:
        """Return the rank-th smallest (key, datum); 0 <= rank < len."""
        self._check_live()
        if not 0 <= rank < self._count:
            raise RangeFault("rank %d out of range for %d entries" % (rank, self._count))
        return self._key_at(rank), self._datum_at(rank)

    def items(self):
        """Yield (key, datum) pairs in key order."""
        self._check_live()
        for rank in range(self._count):
            yield self._key_at(rank), self._datum_at(rank)

    def write(self, stream) -> None:
        """Write 8-byte entry count, then the raw sorted pair bytes."""
        self._check_live()
        wire.write_records(stream, self._count, self._pairs)

    @classmethod
    def read(cls, stream, key_size: int, datum_size: int, key_compare=None) -> "CompactTable":
        """Inverse of write; sizes and order are supplied by the caller."""
        table = cls(key_size, datum_size, key_compare)
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
        if self.key_compare is None:
            keys = self._key_view()
            out_of_order = np.flatnonzero(keys[1:] <= keys[:-1])
            return int(out_of_order[0]) + 1 if out_of_order.size else None
        for rank in range(1, self._count):
            if self.key_compare(self._key_at(rank - 1), self._key_at(rank)) >= 0:
                return rank
        return None

    def _drop(self) -> None:
        self._keys = None
        self._pairs = bytearray()
        self._count = 0

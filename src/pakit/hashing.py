"""Hash tables for arbitrary key types, on CPython's `dict`.

A key hashes and compares through its own type's `__hash__` and
`__eq__`, and the C `dict` (open addressing with perturbed probing,
`Objects/dictobject.c`) stores the entries.  A caller that wants another
equality, say case-insensitive names, passes keys of a type that defines
it; a key whose type has no hash (a list, a `bytearray`) is refused
with `TypeError`, so no key can change after it is stored.  `None` is
an ordinary key.

`HashTable(key_size)` takes the key width that the logical footprint
estimate charges per slot: an int for fixed-width keys, or None for
keys of any length, charged 16 bytes.

`capacity` is bookkeeping for that estimate: it starts at 8 and
doubles when an insert would take the entries past MAX_LOAD of it (even
an insert that replaces a datum), so the accounted bytes grow as an
open-addressing table's slots would.  Removes never shrink it.
"""

import sys
from operator import attrgetter
from typing import NamedTuple, Optional

from .accounting import Container, checked_size

MAX_LOAD = 0.7

# the first block, 8 slots of key_size + 8 bytes and the header, is at most sys.maxsize
_MOST_KEY_SIZE = (sys.maxsize - Container.HEADER_BYTES) // 8 - 8


class HashStats(NamedTuple):
    """A HashTable's occupancy: live entries, capacity, and their ratio."""

    entries: int
    capacity: int
    load: float


def symbol_spec(key_size: int = 8) -> int:
    """`key_size` itself.  Its one reader is `perfbench/pipeline.py`; everything else passes the int."""
    return key_size


class HashTable(Container):
    """<key, datum> table over one dict, with an open-addressing table's accounted footprint."""

    __slots__ = ("_key_size", "_slot_bytes", "_map", "_capacity", "_limit")

    key_size = property(attrgetter("_key_size"), doc="The key width each slot is charged, or None; read-only.")
    capacity = property(attrgetter("_capacity"), doc="The slots the footprint estimate charges; read-only.")

    def __init__(self, key_size: Optional[int]):
        if key_size is not None:
            checked_size("key_size", key_size, most=_MOST_KEY_SIZE)
        self._key_size = key_size
        self._slot_bytes = (16 if key_size is None else key_size) + 8
        self._map = {}
        self._capacity = 8
        self._limit = MAX_LOAD * self._capacity
        super().__init__(self._slot_bytes * self._capacity)

    def __len__(self) -> int:
        return len(self._map)

    @property
    def tombstone_count(self) -> int:
        """Always 0: a remove leaves no marker behind.  Its one reader is `perfbench/pipeline.py`."""
        return 0

    def insert(self, key, datum) -> bool:
        """Map key to datum; returns True if an existing datum was replaced.

        A replace keeps the stored key, as `dict` does.  An unhashable key
        raises TypeError before anything changes.
        """
        table = self._map
        replaced = key in table
        if len(table) + 1 > self._limit:
            capacity = 2 * self._capacity
            self._resize(self._slot_bytes * capacity)  # first: a refused size changes nothing
            self._capacity, self._limit = capacity, MAX_LOAD * capacity
        table[key] = datum
        self._mods += 1
        return replaced

    def find(self, key, default=None):
        """Return the datum mapped to key, or `default` when absent."""
        return self._map.get(key, default)

    def __contains__(self, key) -> bool:
        return key in self._map

    def remove(self, key) -> bool:
        """Remove key if present; True iff it was there."""
        table = self._map
        if key not in table:
            return False
        del table[key]
        self._mods += 1
        return True

    def stats(self) -> HashStats:
        """Occupancy now: live entries, capacity and load."""
        return HashStats(len(self._map), self._capacity, len(self._map) / self._capacity)

    def items(self):
        """Iterator over each (key, datum) once, in the order the keys were inserted.

        A key removed and inserted again counts from its new insert.
        """
        return self._guarded(self._mods, self._map.items(), "HashTable mutated during iteration")

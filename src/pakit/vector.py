"""Fixed-size records in one buffer: the `Records` store, and `Vector` on it.

`Records` is what `Vector` and `CompactTable` share: records of one
size fixed at construction in one contiguous `bytearray` (n records cost
n * record_size bytes plus a small header), the size rule of a block,
`_splice`, `write` and its inverse `read`, and one numpy `S<width>` view
that gives both `Vector.sort` and `CompactTable.read` unsigned byte
order.  So a `Vector` of `k + d`-byte elements sorted by key writes
exactly the stream of a `CompactTable(k, d)`.  Element *contents* are
written verbatim; only the framing is architecture-independent.  Another
order than unsigned bytes is a matter of encoding the elements (see the
`CompactTable` docstring).
"""

import struct
from itertools import chain, repeat
from operator import attrgetter

import numpy as np

from . import wire
from .accounting import Container, checked_size
from .errors import ContractFault, RangeFault


class Records(Container):
    """Records of one fixed size in one bytearray: the store of `Vector` and `CompactTable`."""

    __slots__ = ("_buf", "_record_size")

    def __init__(self, record_size: int):
        self._buf = bytearray()
        self._record_size = record_size
        super().__init__()

    def __len__(self) -> int:
        return len(self._buf) // self._record_size

    def _check_size(self, value, size: int, what: str) -> bytes:
        """`value` as bytes of exactly `size` bytes; ContractFault for anything else.

        Only bytes-like values pass: `bytes(3)` would be three zero bytes.
        """
        try:
            value = memoryview(value).tobytes()
        except TypeError:
            raise ContractFault("%s must be bytes-like, got %s" % (what, type(value).__name__)) from None
        if len(value) != size:
            raise ContractFault("%s is %d bytes, expected %d" % (what, len(value), size))
        return value

    def _splice(self, start: int, stop: int, records) -> None:
        """Put `records` in place of the bytes from start to stop; every size change but an append's."""
        self._buf[start:stop] = records
        self._mods += 1
        self._resize(len(self._buf))

    def _each(self, read):
        """An iterator of `read(buffer, offset)` for each record in turn, under the iteration rule."""
        records = map(read, repeat(self._buf), range(0, len(self._buf), self._record_size))
        return self._guarded(self._mods, records, "%s changed size during iteration" % type(self).__name__)

    def _column(self, width: int) -> np.ndarray:
        """The first `width` bytes of every record as a numpy `S<width>` array sharing the buffer.

        numpy orders `S` values with trailing NULs stripped: for one fixed
        width that is unsigned byte order.  The array holds no export of the
        bytearray, so a caller drops it before the size changes.
        """
        return np.ndarray((len(self),), dtype="S%d" % width, buffer=self._buf, strides=(self._record_size,))

    def write(self, stream) -> None:
        """Write 8-byte record count, then the raw record bytes."""
        wire.write_records(stream, len(self), self._buf)

    def _read(self, stream):
        """This new, empty store filled from `stream` (the inverse of write); a fault destroys it."""
        with self._destroy_on_error():
            # `+=` copies the payload once, where a slice assignment from bytes copies it twice
            self._buf += wire.read_records(stream, self._record_size)[1]
            self._resize(len(self._buf))
            self._check_read()
        return self

    def _check_read(self) -> None:
        """Raise DecodeFault if the records just read break a rule of the subclass; `Vector` has none."""


class Vector(Records):
    """Growable sequence of fixed-size byte elements."""

    __slots__ = ("_element_from",)

    HEADER_BYTES = 32

    element_size = property(attrgetter("_record_size"), doc="The size of every element in bytes; read-only.")

    def __init__(self, element_size: int, elements=()):
        element_size = checked_size("element_size", element_size)
        # copies one element into bytes and holds no export of _buf after the call
        self._element_from = struct.Struct("%ds" % element_size).unpack_from
        super().__init__(element_size)
        with self._destroy_on_error():
            self.extend(elements)

    def __getitem__(self, index: int) -> bytes:
        n = len(self._buf) // self._record_size
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise RangeFault("index %d out of range for length %d" % (index, n))
        (element,) = self._element_from(self._buf, index * self._record_size)
        return element

    def __setitem__(self, index: int, element) -> None:
        element = self._check_size(element, self._record_size, "element")
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise RangeFault("index %d out of range for length %d" % (index, n))
        offset = index * self._record_size
        self._buf[offset : offset + self._record_size] = element

    def __iter__(self):
        # element_from gives 1-tuples, which chain flattens one step at a time
        return chain.from_iterable(self._each(self._element_from))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Vector):
            return NotImplemented
        return self._record_size == other._record_size and self._buf == other._buf

    def append(self, element) -> None:
        if type(element) is not bytes or len(element) != self._record_size:
            element = self._check_size(element, self._record_size, "element")
        # _splice inline: this is the per-pair call of a freeze
        self._buf += element
        self._mods += 1
        self._resize(len(self._buf))

    def extend(self, elements) -> None:
        """Append every element, checked as `append` checks it; all or nothing, one resize."""
        size = self._record_size
        joined = b"".join([
            element if type(element) is bytes and len(element) == size
            else self._check_size(element, size, "element")
            for element in elements
        ])
        if joined:  # an empty extend changes nothing, so it ends no iteration
            self._splice(len(self._buf), len(self._buf), joined)

    def insert(self, position: int, element) -> None:
        """Insert `element` so it ends up at `position`; 0 <= position <= len."""
        element = self._check_size(element, self._record_size, "element")
        if not 0 <= position <= len(self):
            raise RangeFault(
                "insert position %d out of range for length %d" % (position, len(self))
            )
        offset = position * self._record_size
        self._splice(offset, offset, element)

    def concat(self, other: "Vector") -> "Vector":
        """Return a new vector holding self's elements then other's."""
        if not isinstance(other, Vector):
            raise ContractFault("cannot concat a Vector with %s" % type(other).__name__)
        if self._record_size != other._record_size:
            raise ContractFault(
                "cannot concat vectors with element sizes %d and %d"
                % (self._record_size, other._record_size)
            )
        joined = Vector(self._record_size)
        joined._splice(0, 0, self._buf + other._buf)
        return joined

    def sort(self) -> None:
        """Sort elements in place in unsigned lexicographic byte order."""
        self._column(self._record_size).sort()

    @classmethod
    def read(cls, stream, element_size: int) -> "Vector":
        """Inverse of write; the element size is supplied by the caller."""
        return cls(element_size)._read(stream)

"""Length-delimited sequence of fixed-size elements.

Elements are opaque byte blocks of one size fixed at construction, held
in a single contiguous buffer, so a vector of n elements costs
n * element_size bytes plus a small header.  Supports insertion,
concatenation, sorting under a caller-supplied order, and portable
serialization.  Element *contents* are written verbatim; only the
framing is architecture-independent.  The default (lexicographic) sort
runs in numpy, in place, on a zero-copy `S<element_size>` view of the
buffer; a caller-supplied order sorts in Python.
"""

from functools import cmp_to_key

import numpy as np

from . import wire
from .accounting import Container
from .errors import ContractFault, DomainFault, RangeFault


class Vector(Container):
    """Growable sequence of fixed-size byte elements."""

    __slots__ = ("element_size", "_buf")

    HEADER_BYTES = 32

    def __init__(self, element_size: int, elements=()):
        if element_size < 1:
            raise DomainFault("element_size must be >= 1, got %d" % element_size)
        self.element_size = element_size
        self._buf = bytearray()
        super().__init__()
        for element in elements:
            self.append(element)

    def __len__(self) -> int:
        return len(self._buf) // self.element_size

    def __getitem__(self, index: int) -> bytes:
        self._check_live()
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise RangeFault("index %d out of range for length %d" % (index, n))
        offset = index * self.element_size
        return bytes(self._buf[offset : offset + self.element_size])

    def __setitem__(self, index: int, element) -> None:
        self._check_live()
        element = self._check_size(element, self.element_size, "element")
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise RangeFault("index %d out of range for length %d" % (index, n))
        offset = index * self.element_size
        self._buf[offset : offset + self.element_size] = element

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Vector):
            return NotImplemented
        return self.element_size == other.element_size and self._buf == other._buf

    def append(self, element) -> None:
        self._check_live()
        self._buf += self._check_size(element, self.element_size, "element")
        self._resize(len(self._buf))

    def insert(self, position: int, element) -> None:
        """Insert `element` so it ends up at `position`; 0 <= position <= len."""
        self._check_live()
        element = self._check_size(element, self.element_size, "element")
        if not 0 <= position <= len(self):
            raise RangeFault(
                "insert position %d out of range for length %d" % (position, len(self))
            )
        offset = position * self.element_size
        self._buf[offset:offset] = element
        self._resize(len(self._buf))

    def concat(self, other: "Vector") -> "Vector":
        """Return a new vector holding self's elements then other's."""
        self._check_live()
        other._check_live()
        if self.element_size != other.element_size:
            raise ContractFault(
                "cannot concat vectors with element sizes %d and %d"
                % (self.element_size, other.element_size)
            )
        joined = Vector(self.element_size)
        joined._buf = self._buf + other._buf
        joined._resize(len(joined._buf))
        return joined

    def sort(self, compare=None) -> None:
        """Sort elements in place; `compare(a, b)` returns <0, 0, or >0.

        Defaults to lexicographic byte order.  Not guaranteed stable.
        """
        self._check_live()
        if compare is None:
            # numpy orders `S` values with trailing NULs stripped: for one
            # fixed width that is lexicographic byte order
            np.frombuffer(self._buf, dtype="S%d" % self.element_size).sort()
            return
        elements = list(self)
        elements.sort(key=cmp_to_key(compare))
        self._buf = bytearray(b"".join(elements))

    def write(self, stream) -> None:
        """Write 8-byte element count, then the raw element bytes."""
        self._check_live()
        wire.write_records(stream, len(self), self._buf)

    @classmethod
    def read(cls, stream, element_size: int) -> "Vector":
        """Inverse of write; the element size is supplied by the caller."""
        payload = wire.read_records(stream, element_size)[1]
        v = cls(element_size)
        v._buf = bytearray(payload)
        v._resize(len(v._buf))
        return v

    def _drop(self) -> None:
        self._buf = bytearray()

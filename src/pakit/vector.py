"""Length-delimited sequence of fixed-size elements.

Elements are opaque byte blocks of one size fixed at construction, held
in a single contiguous buffer, so a vector of n elements costs
n * element_size bytes plus a small header.  Supports insertion,
concatenation, sorting, and portable serialization.  Element *contents*
are written verbatim; only the framing is architecture-independent.
`sort` orders elements as unsigned bytes, in numpy, in place, on a
zero-copy `S<element_size>` view of the buffer; another order is a
matter of encoding the elements (see the `CompactTable` docstring).
"""

import struct

import numpy as np

from . import wire
from .accounting import Container
from .errors import ContractFault, DomainFault, RangeFault


class Vector(Container):
    """Growable sequence of fixed-size byte elements."""

    __slots__ = ("element_size", "_buf", "_element_from")

    HEADER_BYTES = 32

    def __init__(self, element_size: int, elements=()):
        if element_size < 1:
            raise DomainFault("element_size must be >= 1, got %d" % element_size)
        self.element_size = element_size
        self._buf = bytearray()
        # copies one element into bytes and holds no export of _buf after the call
        self._element_from = struct.Struct("%ds" % element_size).unpack_from
        super().__init__()
        with self._destroy_on_error():
            self.extend(elements)

    def __len__(self) -> int:
        return len(self._buf) // self.element_size

    def __getitem__(self, index: int) -> bytes:
        n = len(self._buf) // self.element_size
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise RangeFault("index %d out of range for length %d" % (index, n))
        (element,) = self._element_from(self._buf, index * self.element_size)
        return element

    def __setitem__(self, index: int, element) -> None:
        element = self._check_size(element, self.element_size, "element")
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise RangeFault("index %d out of range for length %d" % (index, n))
        offset = index * self.element_size
        self._buf[offset : offset + self.element_size] = element

    def __iter__(self):
        return self._elements(len(self._buf))

    def _elements(self, size: int):
        element_from = self._element_from
        for offset in range(0, size, self.element_size):
            if len(self._buf) != size:
                raise ContractFault("Vector changed size during iteration")
            (element,) = element_from(self._buf, offset)
            yield element
        if len(self._buf) != size:  # a change after the last element
            raise ContractFault("Vector changed size during iteration")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Vector):
            return NotImplemented
        return self.element_size == other.element_size and self._buf == other._buf

    def append(self, element) -> None:
        if type(element) is not bytes or len(element) != self.element_size:
            element = self._check_size(element, self.element_size, "element")
        self._buf += element
        self._resize(len(self._buf))

    def extend(self, elements) -> None:
        """Append every element, checked as `append` checks it; all or nothing, one resize."""
        size = self.element_size
        checked = [
            element if type(element) is bytes and len(element) == size
            else self._check_size(element, size, "element")
            for element in elements
        ]
        self._buf += b"".join(checked)
        self._resize(len(self._buf))

    def insert(self, position: int, element) -> None:
        """Insert `element` so it ends up at `position`; 0 <= position <= len."""
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
        if self.element_size != other.element_size:
            raise ContractFault(
                "cannot concat vectors with element sizes %d and %d"
                % (self.element_size, other.element_size)
            )
        joined = Vector(self.element_size)
        joined._buf = self._buf + other._buf
        joined._resize(len(joined._buf))
        return joined

    def sort(self) -> None:
        """Sort elements in place in unsigned lexicographic byte order."""
        # numpy orders `S` values with trailing NULs stripped: for one
        # fixed width that is lexicographic byte order
        np.frombuffer(self._buf, dtype="S%d" % self.element_size).sort()

    def write(self, stream) -> None:
        """Write 8-byte element count, then the raw element bytes."""
        wire.write_records(stream, len(self), self._buf)

    @classmethod
    def read(cls, stream, element_size: int) -> "Vector":
        """Inverse of write; the element size is supplied by the caller."""
        payload = wire.read_records(stream, element_size)[1]
        v = cls(element_size)
        v._buf = bytearray(payload)
        v._resize(len(v._buf))
        return v

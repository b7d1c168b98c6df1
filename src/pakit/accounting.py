"""Process-wide registry of live container allocations.

Containers register the logical size of their storage when created,
adjust it as they grow or shrink, and release it when destroyed.  A test
suite that destroys everything it created can then assert that both
totals are exactly zero, which is how this library checks for leaks.

Sizes are logical bytes (element size times capacity plus a fixed header
estimate), not allocator bytes, so the numbers are portable across
allocators and runtimes.
"""

import threading

from .errors import ContractFault, DomainFault


class AllocationToken:
    """Handle for one registered block; single-owner, release at most once."""

    __slots__ = ("size", "released")

    def __init__(self, size: int):
        self.size = size
        self.released = False


class AccountingRegistry:
    """Counters of live registered blocks and their logical byte total."""

    def __init__(self):
        self._lock = threading.Lock()
        self._blocks = 0
        self._bytes = 0

    def register(self, logical_size: int) -> AllocationToken:
        """Register a new block of `logical_size` bytes and return its token."""
        if logical_size < 0:
            raise DomainFault("logical_size must be >= 0, got %d" % logical_size)
        token = AllocationToken(logical_size)
        with self._lock:
            self._blocks += 1
            self._bytes += logical_size
        return token

    def resize(self, token: AllocationToken, new_size: int) -> None:
        """Declare a new logical size for a live token (realloc analogue)."""
        if new_size < 0:
            raise DomainFault("new_size must be >= 0, got %d" % new_size)
        with self._lock:
            if token.released:
                raise ContractFault("resize of a released allocation token")
            self._bytes += new_size - token.size
            token.size = new_size

    def release(self, token: AllocationToken) -> None:
        """Release a live token, subtracting its current logical size."""
        with self._lock:
            if token.released:
                raise ContractFault("double release of an allocation token")
            token.released = True
            self._blocks -= 1
            self._bytes -= token.size

    def totals(self) -> tuple[int, int]:
        """Return (live_blocks, live_bytes), mutually consistent."""
        with self._lock:
            return self._blocks, self._bytes


_registry = AccountingRegistry()

register = _registry.register
resize = _registry.resize
release = _registry.release
totals = _registry.totals

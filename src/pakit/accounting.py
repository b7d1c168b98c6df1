"""Process-wide registry of live container allocations.

Containers register the logical size of their storage when created,
adjust it as they grow or shrink, and release it when destroyed.  A test
suite that destroys everything it created can then assert that both
totals are exactly zero, which is how this library checks for leaks.

Sizes are logical bytes (element size times capacity plus a fixed header
estimate), not allocator bytes, so the numbers are portable across
allocators and runtimes.
"""

import contextlib
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
        lock = self._lock
        lock.acquire()  # not `with`, which costs about twice as much on this per-append path
        try:
            if token.released:
                raise ContractFault("resize of a released allocation token")
            self._bytes += new_size - token.size
            token.size = new_size
        finally:
            lock.release()

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


class Container:
    """One registered block of HEADER_BYTES + payload bytes; any use after destroy() faults.

    A subclass calls `super().__init__(payload)` once its storage exists
    and reports payload changes through `_resize`.  `destroy()` moves the
    instance to a destroyed twin of its class, whose every attribute
    raises `ContractFault`, and then drops every slot, so no subclass
    checks liveness or drops its own storage.

    Iteration follows one rule, as `dict` does: an iterator raises
    `ContractFault` at its next step once an operation that changes the
    size has run since the iterator began, including after its last
    entry.  A write in place that keeps the size (`Vector.__setitem__`,
    a `CompactTable.insert` that replaces a datum) does not count.
    `HashTable` is stricter: any insert or remove since the iterator
    began counts, even one that replaces a datum.
    """

    __slots__ = ("_token",)

    HEADER_BYTES = 48

    def __init__(self, payload: int = 0):
        self._token = register(self.HEADER_BYTES + payload)

    def _resize(self, payload: int) -> None:
        resize(self._token, self.HEADER_BYTES + payload)

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

    @contextlib.contextmanager
    def _destroy_on_error(self):
        """Destroy this container if the block raises, so a failed read leaks nothing."""
        try:
            yield
        except BaseException:
            self.destroy()
            raise

    def destroy(self) -> None:
        """Release the registered block, then drop the storage; destroy at most once."""
        cls = type(self)
        try:
            release(self._token)
        except ContractFault:  # another thread released it before this one saw the twin
            raise ContractFault("operation on a destroyed %s" % cls.__name__) from None
        self.__class__ = _destroyed.get(cls) or _destroyed.setdefault(cls, _destroyed_twin(cls))
        for klass in cls.__mro__:
            for name in klass.__dict__.get("__slots__", ()):
                object.__delattr__(self, name)


_destroyed: dict[type, type] = {}  # class -> its destroyed twin


def _fault(self, name):
    if name == "__class__":  # isinstance() reads it
        return type(self)
    raise ContractFault("operation on a destroyed %s" % type(self).__name__)


def _refuse(self, *args):
    raise ContractFault("operation on a destroyed %s" % type(self).__name__)


def _destroyed_twin(cls: type) -> type:
    """A subclass of `cls` with no storage of its own whose every attribute, `==` and hash() fault."""
    return type(cls.__name__, (cls,), {
        "__slots__": (), "__getattribute__": _fault, "__eq__": _refuse, "__hash__": _refuse,
        "__module__": cls.__module__, "__qualname__": cls.__qualname__,
    })

"""Process-wide registry of live container allocations.

Containers register the logical size of their storage when created,
adjust it as they grow or shrink, and release it when destroyed.  A test
suite that destroys everything it created can then assert that both
totals are exactly zero, which is how this library checks for leaks.

Sizes are logical bytes (element size times capacity plus a fixed header
estimate), not allocator bytes, so the numbers are portable across
allocators and runtimes.

`checked_size` is the one rule for a size that a caller passes; every
function that takes one applies it first, so a refused size registers
nothing.
"""

import contextlib
import sys
import threading

from .errors import ContractFault, DomainFault


def checked_size(name: str, value, least: int = 1, most: int = sys.maxsize) -> int:
    """`value` if it is an int from `least` to `most`; DomainFault naming `name` otherwise.

    Only `int` itself passes: a bool, a float that is whole and a numpy
    integer are refused (pass `int(n)`).  A caller whose size sets a
    larger one, such as a block of several of it, lowers `most` so that
    the larger one stays within sys.maxsize.
    """
    if type(value) is int and least <= value <= most:
        return value
    ceiling = "sys.maxsize" if most == sys.maxsize else most
    raise DomainFault("%s must be an int from %d to %s, got %r" % (name, least, ceiling, value))


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
        token = AllocationToken(checked_size("logical_size", logical_size, 0))
        with self._lock:
            self._blocks += 1
            self._bytes += logical_size
        return token

    def resize(self, token: AllocationToken, new_size: int) -> None:
        """Declare a new logical size for a live token (realloc analogue)."""
        if new_size < 0:  # inline, as this runs per append
            checked_size("new_size", new_size, 0)  # raises
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

    Iteration follows one rule, as `dict` does: `_mods` counts the
    operations that end an iteration, and every iterator runs through
    `_guarded`, which raises `ContractFault` at its next step, also after
    its last entry, once `_mods` has moved since the iterator began.
    `Vector` and `CompactTable` count each operation that changes the
    size, so a write in place (`Vector.__setitem__`, a replace) does not
    count; `HashTable` counts every insert and remove, even a replace.
    """

    __slots__ = ("_token", "_mods")

    HEADER_BYTES = 48

    def __init__(self, payload: int = 0):
        self._mods = 0
        self._token = register(self.HEADER_BYTES + payload)

    def _resize(self, payload: int) -> None:
        resize(self._token, self.HEADER_BYTES + payload)

    def _guarded(self, mods: int, steps, fault: str):
        """Yield each of `steps` while `_mods` is still `mods`, checked before each step and after the last."""
        # checked before `steps` advances, so no step runs on moved storage; reading
        # a slot, the check also faults once the container is destroyed
        if self._mods == mods:
            for step in steps:
                yield step
                if self._mods != mods:
                    break
        if self._mods != mods:
            raise ContractFault(fault)

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

"""No exported container keeps a public name in `__slots__`.

A slot is a writable attribute.  A container's shape fields (`key_size`,
`symbol_width`, `alphabet_size`, ...) size its storage, and its code
trusts them, so a public slot would let one assignment corrupt it: each
is a read-only property over a private slot instead.  Every
`accounting.Container` subclass that `pakit` exports is walked along its
MRO.
"""

import pytest

from pakit import accounting
from test_contract_public_names import exported_containers


def public_slots(cls: type) -> list:
    """(class name, slot) of each public name in a `__slots__` along the MRO of `cls`."""
    found = []
    for klass in cls.__mro__:
        slots = klass.__dict__.get("__slots__", ())
        for name in (slots,) if isinstance(slots, str) else slots:
            if not name.startswith("_"):
                found.append((klass.__name__, name))
    return found


@pytest.mark.parametrize("container", exported_containers(), ids=lambda container: container.__name__)
def test_no_public_slots(container):
    assert public_slots(container) == []


def test_public_slots_are_found_along_the_mro():
    base = type("Base", (accounting.Container,), {"__slots__": "width"})
    shaped = type("Shaped", (base,), {"__slots__": ("_rows", "depth")})
    assert public_slots(shaped) == [("Shaped", "depth"), ("Base", "width")]

"""The contract machines (`test_*_contract.py`) use public names only.

A machine that reads a private attribute or imports a private name
would pin the representation it was meant to leave free, so each one
is parsed and every attribute and imported name that starts with `_`
and is not a dunder is refused.  Every `accounting.Container` subclass
that `pakit` exports has a machine, named after its class
(`UnigramTable` has `test_unigram_table_contract.py`).
"""

import ast
import re
from pathlib import Path

import pytest

import pakit
from pakit import accounting

CONTRACTS = sorted(Path(__file__).parent.glob("test_*_contract.py"))


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_names(source: str) -> list:
    """(line, name) of each private attribute or imported name in `source`, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [part for alias in node.names for part in alias.name.split(".")]
            if isinstance(node, ast.ImportFrom) and node.module:
                names += node.module.split(".")
        else:
            continue
        found += [(node.lineno, name) for name in names if is_private(name)]
    return sorted(found)


def machine_name(container: type) -> str:
    """The file of a container's machine: `CompactTable` has `test_compact_table_contract.py`."""
    return "test_%s_contract.py" % re.sub(r"(?<!^)(?=[A-Z])", "_", container.__name__).lower()


def exported_containers() -> list:
    """Every `accounting.Container` subclass that `pakit` exports."""
    exported = [getattr(pakit, name) for name in pakit.__all__]
    return [item for item in exported if isinstance(item, type) and issubclass(item, accounting.Container)]


def test_every_container_has_a_contract_machine():
    containers = exported_containers()
    assert pakit.UnigramTable in containers
    missing = {machine_name(container) for container in containers} - {path.name for path in CONTRACTS}
    assert missing == set()


def test_a_container_without_a_machine_is_missed():
    assert machine_name(pakit.CompactTable) == "test_compact_table_contract.py"
    radix_tree = type("RadixTree", (accounting.Container,), {})
    assert machine_name(radix_tree) not in {path.name for path in CONTRACTS}


@pytest.mark.parametrize("path", CONTRACTS, ids=lambda path: path.stem)
def test_contract_uses_public_names_only(path):
    assert private_names(path.read_text()) == []


def test_private_names_are_found():
    source = (
        "from pakit import _wire\n"
        "from pakit._impl import x\n"
        "from pakit.errors import _Fault as Fault\n"
        "table._pairs, table.__len__(), table.items\n"
    )
    assert private_names(source) == [(1, "_wire"), (2, "_impl"), (3, "_Fault"), (4, "_pairs")]

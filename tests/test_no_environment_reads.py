"""No module of `pakit` reads the environment.

The library is configured by its arguments alone: a knob read from
`os.environ` is a second, hidden interface that every caller inherits
and no signature shows.  Each module under the package is parsed and
every use of `environ`, `environb`, `getenv` or `getenvb`, as an
attribute or as an imported name, is refused.
"""

import ast
from pathlib import Path

import pytest

import pakit

MODULES = sorted(Path(pakit.__file__).parent.rglob("*.py"))
ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source: str) -> list:
    """(line, name) of each environment name read as an attribute or imported, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        else:
            continue
        found += [(node.lineno, name) for name in names if name in ENVIRONMENT_NAMES]
    return sorted(found)


def test_every_module_is_parsed():
    assert {"__init__.py", "bench.py", "trie.py"} <= {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.stem)
def test_module_reads_no_environment(path):
    assert environment_reads(path.read_text()) == []


def test_environment_reads_are_found():
    source = (
        "import os\n"
        "from os import getenv as get\n"
        "os.environ.get('HOME', '')\n"
        "import os as system; system.getenv('X')\n"
        "environment = {}; environment.get('X')\n"
    )
    assert environment_reads(source) == [(2, "getenv"), (3, "environ"), (4, "getenv")]

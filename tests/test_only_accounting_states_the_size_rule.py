"""No module of `pakit` but `accounting` states the rule for a size.

Every size a caller passes goes through `accounting.checked_size`, so
the rule, and the DomainFault that refuses a size, are written once.
Each module under the package is parsed, and outside `accounting.py`
a DomainFault whose message says "must be >=" or "must be an int" is
refused: that is an inline size check coming back.  A size read from a
stream keeps its DecodeFault, and a membership test after the rule
("width must be one of ...") states no bound of its own.
"""

import ast
from pathlib import Path

import pytest

import pakit

MODULES = sorted(Path(pakit.__file__).parent.rglob("*.py"))
RULE_WORDS = ("must be >=", "must be an int")


def size_rules(source: str) -> list:
    """(line, text) of each DomainFault built with a message that states a size rule, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and node.args):
            continue
        func = node.func
        if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) != "DomainFault":
            continue
        for part in ast.walk(node.args[0]):
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                if any(words in part.value for words in RULE_WORDS):
                    found.append((node.lineno, part.value))
    return sorted(found)


def test_every_module_is_parsed():
    assert {"accounting.py", "vector.py", "wire.py", "unigram.py", "bench.py"} <= {path.name for path in MODULES}


@pytest.mark.parametrize("path", [path for path in MODULES if path.name != "accounting.py"], ids=lambda path: path.stem)
def test_module_states_no_size_rule(path):
    assert size_rules(path.read_text()) == []


def test_accounting_states_it_once():
    (path,) = [path for path in MODULES if path.name == "accounting.py"]
    assert [text for _, text in size_rules(path.read_text())] == ["%s must be an int from %d to %s, got %r"]


def test_size_rules_are_found():
    source = (
        'raise DomainFault("op_count must be >= 1, got %d" % op_count)\n'
        'raise errors.DomainFault(f"key_size must be an int >= 1, got {key_size!r}")\n'
        'raise DecodeFault("alphabet_size must be >= 1, got %d" % alphabet_size)\n'
        'raise DomainFault("width must be one of %r, got %r" % (_WIDTHS, width))\n'
    )
    # a DecodeFault is a size read from a stream, and a membership test states no bound
    assert size_rules(source) == [
        (1, "op_count must be >= 1, got %d"),
        (2, "key_size must be an int >= 1, got "),
    ]

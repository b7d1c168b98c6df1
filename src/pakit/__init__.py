"""pakit: compact containers and extended-range probability arithmetic.

Containers
    Vector        fixed-size elements in one contiguous buffer
    CompactTable  sorted pair array, expected O(1) lookup through a hash index of ranks,
                  O(log n) rank search for insert and delete, minimal footprint
    Trie          interns symbol strings as dense integer indices
    HashTable     <key, datum> table over a dict; keys bring their own hash
    UnigramTable  frequency counters that widen from 1 to 8 bytes

Numerics
    balanced      (significand, exponent) tuples: single-quality significand, 32-bit exponent
    fixedlog      32-bit integer codes for -2**16*ln(p), table-driven addition
    logpr         -ln(p) as a double, the accuracy reference
    pr            one generic interface over all of them, plus conformance

Every container derives from `accounting.Container`, one registered block
that destroy() releases once; later operations raise ContractFault.  Destroy
what you create and the registry totals return to zero.  All serialization
goes through `wire`, a big-endian self-delimiting format.

Each number module has one value form and one function per operation,
and `pr` binds those same functions wherever they already follow its
probability rule.
"""

from . import accounting, balanced, fixedlog, hashing, logpr, pr, unigram, vector, wire
from .compact_table import CompactTable
from .errors import (
    ContractFault,
    DecodeFault,
    DomainFault,
    Fault,
    OverflowFault,
    RangeFault,
    UnderflowFault,
)
from .hashing import HashTable, symbol_spec  # symbol_spec: for perfbench/pipeline.py alone, so not in __all__
from .trie import Trie
from .unigram import UnigramTable
from .vector import Vector

__version__ = "0.1.0"

__all__ = [
    "CompactTable",
    "ContractFault",
    "DecodeFault",
    "DomainFault",
    "Fault",
    "HashTable",
    "OverflowFault",
    "RangeFault",
    "Trie",
    "UnderflowFault",
    "UnigramTable",
    "Vector",
    "accounting",
    "balanced",
    "fixedlog",
    "hashing",
    "logpr",
    "pr",
    "unigram",
    "vector",
    "wire",
]

import hashlib
import random
import struct
import sys
import tracemalloc
from array import array
from io import BytesIO

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from pakit import accounting, wire
from pakit.accounting import Container
from pakit.errors import ContractFault, DecodeFault, DomainFault, RangeFault
from pakit.trie import Trie


def test_indices_follow_insertion_order():
    t = Trie(1)
    assert t.index_of([2, 5]) == 0
    assert t.index_of([2, 7]) == 1
    assert t.index_of([2, 5]) == 0
    t.destroy()


def test_empty_string_is_a_string():
    t = Trie(1)
    assert t.index_of([]) == 0
    assert t.string_of(0) == ()
    t.destroy()


def test_find_does_not_intern():
    t = Trie(1)
    t.index_of([2, 5])
    assert t.find([2, 5]) == 0
    assert t.find([9, 9]) is None
    assert len(t) == 1
    t.destroy()


def test_prefix_is_not_assigned():
    t = Trie(1)
    t.index_of([2, 5])
    assert t.find([2]) is None
    t.destroy()


def test_find_on_empty_trie():
    t = Trie(1)
    assert t.find([1]) is None
    t.destroy()


def test_string_of_first_insert():
    t = Trie(1)
    t.index_of([2, 5])
    assert t.string_of(0) == (2, 5)
    t.destroy()


def test_string_of_out_of_range():
    t = Trie(1)
    t.index_of([1])
    with pytest.raises(RangeFault):
        t.string_of(1)
    t.destroy()


def test_size():
    t = Trie(1)
    assert len(t) == 0
    t.index_of([1])
    t.index_of([2])
    t.index_of([3])
    assert len(t) == 3
    t.index_of([2])
    assert len(t) == 3
    t.destroy()


def test_symbol_out_of_range_faults():
    for width in (1, 2, 4, 8):
        t = Trie(width)
        for symbol in (1 << 8 * width, -1):  # [256] and [-1] at width 1
            for form in (list, tuple):
                with pytest.raises(RangeFault):
                    t.index_of(form([symbol]))
        assert t.index_of([(1 << 8 * width) - 1]) == 0
        t.destroy()


def test_bad_symbol_width_faults():
    with pytest.raises(DomainFault):
        Trie(3)


def test_wide_symbols():
    t = Trie(8)
    big = (1 << 64) - 1
    assert t.index_of([big, 0, big]) == 0
    assert t.string_of(0) == (big, 0, big)
    t.destroy()


def test_matches_first_seen_oracle():
    # Oracle: dict mapping tuple -> first-seen counter.
    rng = random.Random(77)
    t = Trie(2)
    oracle = {}
    for _ in range(10_000):
        length = rng.randrange(0, 6)
        string = tuple(rng.randrange(40) for _ in range(length))
        expected = oracle.setdefault(string, len(oracle))
        assert t.index_of(string) == expected
    assert len(t) == len(oracle)
    # bijection both ways, indices dense by construction of the oracle
    for string, index in oracle.items():
        assert t.find(string) == index
        assert t.string_of(index) == string
        assert t.index_of(t.string_of(index)) == index
    t.destroy()


def test_serialization_roundtrip():
    t = Trie(2)
    strings = [(3,), (3, 300), (), (1, 2, 3, 4), (300,)]
    for s in strings:
        t.index_of(s)
    stream = BytesIO()
    t.write(stream)
    stream.seek(0)
    loaded = Trie.read(stream, symbol_width=2)
    assert stream.read() == b""
    assert len(loaded) == len(t)
    for index in range(len(t)):
        assert loaded.string_of(index) == t.string_of(index)
    # reserialization is bit-identical
    first, second = BytesIO(), BytesIO()
    t.write(first)
    loaded.write(second)
    assert first.getvalue() == second.getvalue()
    t.destroy()
    loaded.destroy()


def test_destroy_releases_every_node_table():
    before = accounting.totals()
    t = Trie(1)
    for i in range(50):
        t.index_of([i, (i * 7) % 256, (i * 13) % 256])
    assert accounting.totals() != before
    t.destroy()
    assert accounting.totals() == before


def test_use_after_destroy_faults():
    t = Trie(1)
    t.destroy()
    with pytest.raises(ContractFault):
        t.index_of([1])


def test_whole_trie_is_one_accounting_block():
    blocks_before, _ = accounting.totals()
    t = Trie(2)
    for i in range(500):
        t.index_of([i % 7, i, 3 * i])
    assert len(t) == 500
    assert accounting.totals()[0] == blocks_before + 1
    t.destroy()


def test_write_format_is_unchanged():
    # Digest taken from the per-node trie that the edge store replaced, so it
    # pins the wire format byte for byte.
    t = Trie(2)
    strings = [
        (3,), (3, 300), (), (1, 2, 3, 4), (300,), (65535, 0, 65535), (7, 7, 7, 7, 7), (3, 300, 1),
    ]
    for s in strings:
        t.index_of(s)
    stream = BytesIO()
    t.write(stream)
    assert len(stream.getvalue()) == 110
    assert hashlib.sha256(stream.getvalue()).hexdigest() == (
        "b206c3d19ff19319566f73b7be3d6588eaf83a30ce22a80de85afe5e6b379c8f"
    )
    t.destroy()


@pytest.mark.representation
def test_range_fault_interns_nothing():
    blocks_before, bytes_before = accounting.totals()
    t = Trie(1)
    with pytest.raises(RangeFault):
        t.index_of([1, 2, 300])
    # the empty trie: header only, no string and no symbol
    assert accounting.totals() == (blocks_before + 1, bytes_before + 48)
    assert len(t) == 0
    assert t.find([1, 2]) is None
    assert t.index_of([1, 2]) == 0
    assert accounting.totals() == (blocks_before + 1, bytes_before + 48 + 24 + 2 * 1)
    t.destroy()
    assert accounting.totals() == (blocks_before, bytes_before)


def test_find_symbol_out_of_range_faults():
    t = Trie(1)
    with pytest.raises(RangeFault):
        t.find([256])
    with pytest.raises(RangeFault):
        t.find([-1])
    t.destroy()


def test_read_rejects_duplicate_string():
    # two strings, both (5,) at width 1
    stream = BytesIO(
        bytes.fromhex("0000000000000002" "0000000000000001" "05" "0000000000000001" "05")
    )
    with pytest.raises(DecodeFault):
        Trie.read(stream, symbol_width=1)


def test_read_truncated_string_faults():
    t = Trie(4)
    t.index_of([1, 2, 3])
    stream = BytesIO()
    t.write(stream)
    t.destroy()
    with pytest.raises(DecodeFault):
        Trie.read(BytesIO(stream.getvalue()[:-1]), symbol_width=4)


def test_string_of_gives_plain_ints():
    t = Trie(2)
    assert t.index_of(np.array([1, 300], dtype=np.uint16)) == 0
    assert t.index_of([True, False]) == 1
    assert t.index_of((np.int64(7),)) == 2
    for index, expected in enumerate([(1, 300), (1, 0), (7,)]):
        string = t.string_of(index)
        assert string == expected
        assert [type(symbol) for symbol in string] == [int] * len(expected)
    assert t.find(np.array([1, 300], dtype=np.uint16)) == 0
    assert t.index_of((1, 0)) == 1
    t.destroy()


def test_integral_float_symbols_intern_as_ints():
    # the hit path compares the caller's tuple, where 6.0 == 6; a miss must agree
    for width in (1, 2, 4, 8):
        t = Trie(width)
        assert t.index_of([6.0]) == 0
        assert t.index_of((6,)) == 0
        assert t.index_of(bytes([6])) == 0
        assert [type(symbol) for symbol in t.string_of(0)] == [int]
        with pytest.raises(DomainFault, match="symbol 6.5 is not an integer"):
            t.index_of([6.5])
        with pytest.raises(DomainFault, match="symbol 6.5 is not an integer"):
            t.find((6, 6.5))
        assert len(t) == 1
        assert _written(t) == struct.pack(">QQ", 1, 1) + (6).to_bytes(width, "big")
        t.destroy()


@pytest.mark.parametrize("width", [1, 2])
@pytest.mark.parametrize(
    "string",
    ["abc", [None], [b"a"], [6.0, "a"], [float("nan")], [float("inf")]],
    ids=["str", "None", "bytes", "float-then-str", "nan", "inf"],
)
def test_a_symbol_that_is_not_a_number_is_refused(width, string):
    t = Trie(width)
    for call in (t.index_of, t.find):
        with pytest.raises(DomainFault, match=r"^symbol .+ is not an integer$"):
            call(string)
    assert len(t) == 0
    assert t.find([6]) is None
    t.destroy()


@pytest.mark.representation
def test_interned_strings_stay_small_in_real_bytes():
    # 10,500 draws give 9,698 distinct words; the node store held 4.38 MB for them
    rng = random.Random(5)
    letters = b"abcdefghijklmnopqrstuvwxyz"
    words = [bytes(rng.choices(letters, k=rng.randint(2, 9))) for _ in range(10_500)]
    tracemalloc.start()
    try:
        t = Trie(1)
        for word in words:
            t.index_of(word)
        live, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(t) == 9_698
    t.destroy()
    assert live < 2_500_000


@pytest.mark.parametrize(
    "form",
    [bytes, bytearray, memoryview, list, tuple, lambda b: (symbol for symbol in b)],
    ids=["bytes", "bytearray", "memoryview", "list", "tuple", "generator"],
)
def test_every_form_of_one_string_is_one_key(form):
    strings = [b"\x00ab", b"ab", b"\xff", b""]
    for width in (1, 2, 4, 8):
        t = Trie(width)
        assert t.index_of(b"\x00ab") == 0
        assert t.index_of(form(b"\x00ab")) == 0
        assert t.find(form(b"\x00ab")) == 0
        assert t.index_of(form(b"ab")) == 1
        assert t.find(b"ab") == 1
        assert t.index_of(form(b"\xff")) == 2
        assert t.find(form(b"")) is None
        assert t.index_of(form(b"")) == 3
        assert [t.string_of(index) for index in range(len(t))] == [tuple(string) for string in strings]
        # each symbol big-endian at the trie's width, whatever form it came in
        assert _written(t) == struct.pack(">Q", len(strings)) + b"".join(
            struct.pack(">Q", len(string)) + b"".join(symbol.to_bytes(width, "big") for symbol in string)
            for string in strings
        )
        t.destroy()


@pytest.mark.representation
@pytest.mark.parametrize("width", [1, 2])
def test_an_int_is_not_a_string(width):
    # bytes(5) is five zero bytes; the trie must never read an int as that
    blocks_before, bytes_before = accounting.totals()
    t = Trie(width)
    for call in (t.index_of, t.find):
        with pytest.raises(TypeError):
            call(5)
    assert len(t) == 0
    assert t.find([0] * 5) is None
    assert accounting.totals() == (blocks_before + 1, bytes_before + 48)
    t.destroy()


@pytest.mark.parametrize("width", [2, 4, 8])
def test_bytes_at_a_wider_width_are_symbols(width):
    t = Trie(width)
    assert t.index_of(b"ab") == 0
    assert t.string_of(0) == (97, 98)
    assert t.find((97, 98)) == 0
    assert t.find(bytes([0] * (width - 1) + [97])) is None  # not read as one packed symbol
    stream = BytesIO()
    t.write(stream)
    assert stream.getvalue() == struct.pack(">QQ", 1, 2) + (97).to_bytes(width, "big") + (98).to_bytes(width, "big")
    t.destroy()


@pytest.mark.parametrize("width", [1, 2, 4, 8])
def test_read_rejects_a_repeated_string_at_every_width(width):
    def string(*symbols):
        return struct.pack(">Q", len(symbols)) + b"".join(s.to_bytes(width, "big") for s in symbols)

    before = accounting.totals()
    stream = BytesIO(struct.pack(">Q", 3) + string(5, 1) + string(2) + string(5, 1))
    with pytest.raises(DecodeFault, match="index 2 re-assigned as 0"):
        Trie.read(stream, symbol_width=width)
    assert accounting.totals() == before


@pytest.mark.representation
def test_a_bytes_hit_at_width_1_takes_no_nested_frame_and_no_tuple():
    t = Trie(1)
    t.index_of(b"ab")
    frames = []

    def profile(frame, event, arg):
        if event == "call":
            frames.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        index, found = t.index_of(b"ab"), t.find(b"ab")
    finally:
        sys.setprofile(None)
    assert (index, found) == (0, 0)
    assert frames == ["index_of", "find"]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        t.index_of(b"ab")
        t.find(b"ab")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak == base  # no tuple built, not even for a moment
    t.destroy()


def _outcome(call):
    try:
        return "ok", call()
    except RangeFault as error:
        return RangeFault, str(error)


def _written(trie) -> bytes:
    stream = BytesIO()
    trie.write(stream)
    return stream.getvalue()


def _operations(width: int):
    top = (1 << (8 * width)) - 1
    # mostly a small alphabet, so that prefixes and repeats are common
    symbol = st.sampled_from([0, 1, 2, top] * 3 + [-1, top + 1])
    string = st.lists(symbol, max_size=4).map(tuple)
    return st.lists(
        st.tuples(st.just("index_of"), string)
        | st.tuples(st.just("find"), string)
        | st.tuples(st.just("string_of"), st.integers(-2, 12)),
        max_size=40,
    )


_FORCED = [
    ("index_of", (1, 2, 0)),
    ("find", (1, 2)),
    ("find", (1,)),
    ("find", ()),
    ("index_of", ()),
    ("index_of", (1, 2)),
    ("index_of", (1, -1)),
    ("find", (1, 2, 0, -1)),
    ("find", (0, 2, -1)),
    ("string_of", -1),
    ("string_of", 3),
    ("string_of", 2),
]


@pytest.mark.parametrize("width", [1, 2, 8])
@given(data=st.data())
@example(data=None)
def test_matches_edge_store_oracle(width, data):
    operations = _FORCED if data is None else data.draw(_operations(width))
    trie, oracle = Trie(width), OracleTrie(width)
    for name, argument in operations:
        got = _outcome(lambda: getattr(trie, name)(argument))
        expected = _outcome(lambda: getattr(oracle, name)(argument))
        if name == "find" and expected == ("ok", None) and got[0] is RangeFault:
            # declared: a miss checks every symbol, where the node walk stopped at
            # the first missing edge and never saw a bad symbol past it
            bad = next(s for s in argument if s < 0 or s >> (8 * width))
            assert got == (RangeFault, "symbol %d does not fit in %d bytes" % (bad, width))
        else:
            assert got == expected
        assert len(trie) == len(oracle)
        assert _written(trie) == _written(oracle)
    trie.destroy()
    oracle.destroy()


_NODE_BYTES = 16  # parent id and assigned index; the symbol adds symbol_width
_EDGE_BYTES = 16  # packed (parent, symbol) key and child id
_STRUCT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}
_END = object()


class OracleTrie(Container):
    """Trie as it was on one flat edge store of nodes, kept verbatim as the reference."""

    __slots__ = (
        "symbol_width", "_shift", "_edges", "_parents", "_symbols", "_indices",
        "_index_to_node",
    )

    def __init__(self, symbol_width: int = 4):
        if symbol_width not in (1, 2, 4, 8):
            raise DomainFault("symbol_width must be 1, 2, 4, or 8, got %r" % symbol_width)
        self.symbol_width = symbol_width
        self._shift = 8 * symbol_width
        self._edges: dict[int, int] = {}
        self._parents = array("q", [-1])
        self._symbols = array("Q", [0])
        self._indices = array("q", [-1])
        self._index_to_node = array("q")
        super().__init__(self._payload())

    def _payload(self) -> int:
        return (
            (_NODE_BYTES + self.symbol_width) * len(self._parents)
            + _EDGE_BYTES * len(self._edges)
            + 8 * len(self._index_to_node)
        )

    def _check_live(self):
        if self._token.released:
            raise ContractFault("operation on a destroyed %s" % type(self).__name__)

    def _range_fault(self, symbol: int) -> RangeFault:
        return RangeFault("symbol %d does not fit in %d bytes" % (symbol, self.symbol_width))

    def __len__(self) -> int:
        self._check_live()
        return len(self._index_to_node)

    def index_of(self, symbols) -> int:
        """Return the index of the sequence, interning it if new."""
        self._check_live()
        edges, shift = self._edges, self._shift
        node = 0
        rest = iter(symbols)
        for symbol in rest:
            if symbol < 0 or symbol >> shift:
                raise self._range_fault(symbol)
            child = edges.get(node << shift | symbol)
            if child is None:
                return self._grow(node, symbol, rest)
            node = child
        index = self._indices[node]
        if index < 0:
            index = self._assign(node)
            self._resize(self._payload())
        return index

    def _assign(self, node: int) -> int:
        index = self._indices[node] = len(self._index_to_node)
        self._index_to_node.append(node)
        return index

    def _grow(self, node: int, symbol: int, rest) -> int:
        """Add the path spelling `symbol` then `rest` below `node`; return its index.

        Nodes made before a symbol that does not fit stay interned and
        counted, like the prefixes of any other string.
        """
        edges, shift = self._edges, self._shift
        parents, symbols, indices = self._parents, self._symbols, self._indices
        try:
            while True:
                child = len(parents)
                edges[node << shift | symbol] = child
                parents.append(node)
                symbols.append(symbol)
                indices.append(-1)
                node = child
                symbol = next(rest, _END)
                if symbol is _END:
                    return self._assign(node)
                if symbol < 0 or symbol >> shift:
                    raise self._range_fault(symbol)
        finally:
            self._resize(self._payload())

    def find(self, symbols) -> int | None:
        """Return the sequence's index if already interned, else None."""
        self._check_live()
        edges, shift = self._edges, self._shift
        node = 0
        for symbol in symbols:
            if symbol < 0 or symbol >> shift:
                raise self._range_fault(symbol)
            node = edges.get(node << shift | symbol)
            if node is None:
                return None
        index = self._indices[node]
        return None if index < 0 else index

    def string_of(self, index: int) -> tuple[int, ...]:
        """Return the exact sequence that was assigned `index`."""
        self._check_live()
        if not 0 <= index < len(self._index_to_node):
            raise RangeFault(
                "index %d out of range for %d strings" % (index, len(self._index_to_node))
            )
        parents, symbols = self._parents, self._symbols
        spelled = []
        node = self._index_to_node[index]
        while node:
            spelled.append(symbols[node])
            node = parents[node]
        spelled.reverse()
        return tuple(spelled)

    def write(self, stream) -> None:
        """Write the string count, then each interned string in index order.

        Each string is one run of records (`wire.write_records`): its
        8-byte length, then its symbols, each `symbol_width` bytes, all
        big-endian.
        """
        self._check_live()
        code = _STRUCT_CODES[self.symbol_width]
        wire.write_uint(stream, len(self), 8)
        for index in range(len(self)):
            symbols = self.string_of(index)
            packed = struct.pack(">%d%s" % (len(symbols), code), *symbols)
            wire.write_records(stream, len(symbols), packed)

    @classmethod
    def read(cls, stream, symbol_width: int) -> "OracleTrie":
        """Inverse of write: re-intern every string in index order."""
        trie = cls(symbol_width)
        code = _STRUCT_CODES[symbol_width]
        with trie._destroy_on_error():
            count = wire.read_uint(stream, 8)
            for expected in range(count):
                length, raw = wire.read_records(stream, symbol_width)
                assigned = trie.index_of(struct.unpack(">%d%s" % (length, code), raw))
                if assigned != expected:
                    raise DecodeFault(
                        "duplicate string in stream: index %d re-assigned as %d"
                        % (expected, assigned)
                    )
        return trie

    def _drop(self) -> None:
        self._edges = {}
        self._parents = array("q")
        self._symbols = array("Q")
        self._indices = array("q")
        self._index_to_node = array("q")

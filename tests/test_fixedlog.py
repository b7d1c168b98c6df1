import functools
import hashlib
import math
import random
import tracemalloc
from array import array
from fractions import Fraction
from io import BytesIO

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pakit import fixedlog, wire
from pakit.errors import DecodeFault, DomainFault
from pakit.fixedlog import CORR, D_MAX, SCALE, SENTINEL


def test_one_maps_to_code_zero():
    assert fixedlog.from_real(1.0) == 0
    assert fixedlog.to_real(0) == 1.0


def test_zero_maps_to_sentinel():
    assert fixedlog.from_real(0.0) == SENTINEL
    assert fixedlog.to_real(SENTINEL) == 0.0


def test_half_maps_to_45426():
    # round(65536 * ln 2) recomputed independently
    assert round(65536 * math.log(2.0)) == 45426
    assert fixedlog.from_real(0.5) == 45426


def test_out_of_domain_faults():
    with pytest.raises(DomainFault):
        fixedlog.from_real(-0.5)
    with pytest.raises(DomainFault):
        fixedlog.from_real(1.5)
    with pytest.raises(DomainFault):
        fixedlog.from_real(math.nan)


def test_smallest_double_encodes_below_sentinel():
    # every nonzero double has a code below the sentinel, so from_real needs no clamp
    assert fixedlog.from_real(5e-324) == 48_787_625 < SENTINEL


def test_a_positive_fraction_below_the_double_range_is_zero():
    assert fixedlog.from_real(Fraction(1, 10**400)) == SENTINEL
    assert fixedlog.from_real(Fraction(1, 2)) == 45426


def test_roundtrip_quantization_bound():
    rng = random.Random(70)
    bound = 0.5 / SCALE + 1e-12  # slack for the double-precision measurement
    for _ in range(10_000):
        p = math.exp(rng.uniform(math.log(1e-9), 0.0))
        back = fixedlog.to_real(fixedlog.from_real(p))
        assert abs(math.log(back) - math.log(p)) <= bound


def test_mul_is_code_addition():
    half = fixedlog.from_real(0.5)
    product = fixedlog.mul(half, half)
    assert product == 2 * half == 90852
    assert abs(product - fixedlog.from_real(0.25)) <= 1


def test_mul_identity_and_absorption():
    x = fixedlog.from_real(0.123)
    assert fixedlog.mul(x, 0) == x
    assert fixedlog.mul(x, SENTINEL) == SENTINEL
    assert fixedlog.mul(SENTINEL, SENTINEL) == SENTINEL


def test_mul_saturates_instead_of_wrapping():
    huge = SENTINEL - 5
    assert fixedlog.mul(huge, huge) == SENTINEL
    assert fixedlog.mul(huge, 4) == SENTINEL - 1
    assert fixedlog.mul(huge, 5) == SENTINEL


def test_mul_is_exact_in_the_log_domain():
    rng = random.Random(71)
    codes = [fixedlog.from_real(rng.uniform(0.01, 1.0)) for _ in range(1000)]
    accumulator = 0
    for code in codes:
        accumulator = fixedlog.mul(accumulator, code)
    assert accumulator == sum(codes)  # integer-exact, no drift


def test_add_halves_make_one():
    half = fixedlog.from_real(0.5)
    assert fixedlog.add(half, half) == 0


def test_add_zero_is_identity():
    x = fixedlog.from_real(0.37)
    assert fixedlog.add(x, SENTINEL) == x
    assert fixedlog.add(SENTINEL, x) == x
    assert fixedlog.add(SENTINEL, SENTINEL) == SENTINEL


def test_add_near_sentinel_codes_keep_zero_semantics():
    # lo just inside the table window of the sentinel must not get a correction
    lo = SENTINEL - 10
    assert fixedlog.add(lo, SENTINEL) == lo


def test_add_matches_log_sum_exp_oracle():
    rng = random.Random(72)
    bound = 2.0 / SCALE
    for _ in range(10_000):
        pa = math.exp(rng.uniform(math.log(1e-6), 0.0))
        pb = math.exp(rng.uniform(math.log(1e-6), 0.0))
        result = fixedlog.add(fixedlog.from_real(pa), fixedlog.from_real(pb))
        expected = min(pa + pb, 1.0)
        assert abs(-result / SCALE - math.log(expected)) <= bound


def test_add_commutes_exactly():
    rng = random.Random(73)
    for _ in range(1000):
        a = fixedlog.from_real(rng.random())
        b = fixedlog.from_real(rng.random())
        assert fixedlog.add(a, b) == fixedlog.add(b, a)


def test_add_is_monotone():
    rng = random.Random(74)
    for _ in range(1000):
        pa, pa2 = sorted((rng.random(), rng.random()))
        pb = rng.random()
        a, a2, b = (fixedlog.from_real(p) for p in (pa, pa2, pb))
        # pa <= pa2, so add(a, b) must not exceed add(a2, b) in probability
        assert fixedlog.cmp(fixedlog.add(a, b), fixedlog.add(a2, b)) <= 0


def test_cmp():
    assert fixedlog.cmp(fixedlog.from_real(0.9), fixedlog.from_real(0.1)) == 1
    assert fixedlog.cmp(SENTINEL, fixedlog.from_real(1e-9)) == -1
    assert fixedlog.cmp(3, 3) == 0


def test_cmp_agrees_beyond_quantization_separation():
    rng = random.Random(75)
    for _ in range(5000):
        pa, pb = rng.random(), rng.random()
        if abs(math.log(pa) - math.log(pb)) <= 1.0 / SCALE:
            continue
        expected = (pa > pb) - (pa < pb)
        assert fixedlog.cmp(fixedlog.from_real(pa), fixedlog.from_real(pb)) == expected


def test_div_is_clamped_code_subtraction():
    quarter = fixedlog.from_real(0.25)
    half = fixedlog.from_real(0.5)
    assert fixedlog.div(quarter, half) == quarter - half
    assert fixedlog.div(half, quarter) == 0  # quotient capped at 1
    assert fixedlog.div(SENTINEL, half) == SENTINEL
    with pytest.raises(DomainFault):
        fixedlog.div(half, SENTINEL)


def test_correction_table_endpoints():
    assert CORR[0] == 45426  # round(scale * ln 2)
    assert CORR[-1] == 0
    assert D_MAX == len(CORR) - 1


def test_correction_table_is_nonincreasing():
    assert (np.diff(np.asarray(CORR)) <= 0).all()


def test_correction_table_matches_direct_evaluation():
    # independent recomputation through log instead of log1p
    d = np.arange(len(CORR), dtype=np.float64)
    direct = np.rint(SCALE * np.log(1.0 + np.exp(-d / SCALE)))
    assert np.array_equal(direct.astype(np.int64), np.asarray(CORR))


def test_correction_table_sampled_against_mpmath():
    rng = random.Random(76)
    sample = [0, D_MAX] + [rng.randrange(D_MAX) for _ in range(500)]
    with mpmath.workdps(50):
        for d in sample:
            exact = SCALE * mpmath.log(1 + mpmath.e ** (mpmath.mpf(-d) / SCALE))
            assert CORR[d] == int(mpmath.nint(exact))


def test_thousand_product_accuracy():
    rng = random.Random(77)
    values = [rng.uniform(0.01, 1.0) for _ in range(1000)]
    accumulator = 0
    for p in values:
        accumulator = fixedlog.mul(accumulator, fixedlog.from_real(p))
    with mpmath.workdps(60):
        oracle = -mpmath.fsum(mpmath.log(mpmath.mpf(p)) for p in values)
        assert abs(accumulator / SCALE - float(oracle)) <= 1000 * 0.5 / SCALE


def test_serialization_roundtrip():
    for code in (0, 45426, SENTINEL - 1, SENTINEL):
        stream = BytesIO()
        fixedlog.write(stream, code)
        data = stream.getvalue()
        assert len(data) == 4
        assert fixedlog.read(BytesIO(data)) == code
        second = BytesIO()
        fixedlog.write(second, code)
        assert second.getvalue() == data


def test_read_truncated_faults():
    with pytest.raises(DecodeFault):
        fixedlog.read(BytesIO(b"\x00\x00"))


def test_correction_table_is_one_packed_array():
    assert isinstance(CORR, array)
    assert CORR.itemsize == 4
    assert len(CORR) == D_MAX + 1


@pytest.mark.parametrize(
    "width, digest",
    [(32, "10d87fda52c3f616510d2610af675843a6c93706e0cbd740d62aa2c52894cf74")],
)
def test_correction_table_bytes_are_pinned(width, digest):
    assert width == fixedlog.WIDTH
    assert hashlib.sha256(CORR.tobytes()).hexdigest() == digest


def test_default_codec_build_peak_stays_below_10_mb():
    # The table keeps 3.1 MB; the build holds one float64 array of its
    # 772,308 candidates (6.2 MB) at a time.
    tracemalloc.start()
    try:
        fixedlog._build_correction_table(SCALE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10_000_000


def _oracle_correction_table(scale: int) -> list[int]:
    """corr[d] = round(scale * ln(1 + exp(-d/scale))), up through its first zero."""
    bound = int(scale * math.log(2.0 * scale)) + 64
    d = np.arange(bound + 1, dtype=np.float64)
    values = np.rint(scale * np.log1p(np.exp(-d / scale))).astype(np.int64)
    zeros = np.flatnonzero(values == 0)
    if zeros.size == 0:
        raise AssertionError("correction table bound %d too small for scale %d" % (bound, scale))
    return values[: int(zeros[0]) + 1].tolist()


_ORACLE_DEFAULT_SCALES = {8: 1 << 4, 16: 1 << 8, 32: 1 << 16}


class OracleFixedLogCodec:
    """The codec class as it was with a list-of-ints table, kept verbatim as the reference."""

    def __init__(self, width: int = 32, scale: int | None = None):
        if width not in _ORACLE_DEFAULT_SCALES:
            raise DomainFault("width must be 8, 16, or 32 bits, got %r" % width)
        if scale is None:
            scale = _ORACLE_DEFAULT_SCALES[width]
        if scale < 1:
            raise DomainFault("scale must be positive, got %r" % scale)
        self.width = width
        self.scale = scale
        self.sentinel = (1 << width) - 1
        self.corr = _oracle_correction_table(scale)
        self.d_max = len(self.corr) - 1

        sentinel = self.sentinel
        corr = self.corr
        d_max = self.d_max

        def mul(a: int, b: int) -> int:
            total = a + b
            return total if total < sentinel else sentinel

        def add(a: int, b: int) -> int:
            if a == sentinel:
                return b
            if b == sentinel:
                return a
            if a < b:
                lo, d = a, b - a
            else:
                lo, d = b, a - b
            if d <= d_max:
                lo -= corr[d]
            return lo if lo > 0 else 0

        self.mul = mul
        self.add = add

    def from_real(self, p: float) -> int:
        if not 0.0 <= p <= 1.0:
            raise DomainFault("probability %r outside [0, 1]" % (p,))
        if p == 0.0:
            return self.sentinel
        code = round(-self.scale * math.log(p))
        return code if code < self.sentinel else self.sentinel - 1

    def div(self, a: int, b: int) -> int:
        if b == self.sentinel:
            raise DomainFault("division by probability zero")
        if a == self.sentinel:
            return self.sentinel
        diff = a - b
        return diff if diff > 0 else 0

    def cmp(self, a: int, b: int) -> int:
        if a == b:
            return 0
        return 1 if a < b else -1

    def write(self, stream, code: int) -> None:
        wire.write_uint(stream, code, self.width // 8)


WIDTHS = (fixedlog.WIDTH,)  # the module offers one code width; the oracle is compared at it


@functools.cache
def _oracle(width: int) -> OracleFixedLogCodec:
    """The oracle for one width, built once: the 32-bit table takes a moment."""
    return OracleFixedLogCodec(width)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DomainFault as fault:
        return ("DomainFault", str(fault))


def _written(codec, code: int) -> bytes:
    stream = BytesIO()
    codec.write(stream, code)
    return stream.getvalue()


def _assert_pairs_match(oracle, pairs):
    for a, b in pairs:
        assert fixedlog.add(a, b) == oracle.add(a, b), (a, b)
        assert fixedlog.mul(a, b) == oracle.mul(a, b), (a, b)
        assert _outcome(fixedlog.div, a, b) == _outcome(oracle.div, a, b), (a, b)
        assert fixedlog.cmp(a, b) == oracle.cmp(a, b), (a, b)


@pytest.mark.parametrize("width", WIDTHS)
def test_correction_table_matches_oracle(width):
    oracle = _oracle(width)
    assert CORR.tolist() == oracle.corr
    assert (SENTINEL, D_MAX, SCALE) == (oracle.sentinel, oracle.d_max, oracle.scale)


@pytest.mark.parametrize("width", WIDTHS)
def test_forced_cases_match_oracle(width):
    oracle = _oracle(width)
    s, d_max = SENTINEL, D_MAX
    edges = [0, 1, 2, s // 2, s - d_max - 2, s - d_max - 1, s - d_max, s - 2, s - 1]
    pairs = [(x, s) for x in edges] + [(s, x) for x in edges] + [(s, s)]  # sentinel operands
    pairs += [(x, x) for x in edges]  # d = 0
    for d in (d_max - 1, d_max, d_max + 1):
        pairs += [(x, x + d) for x in edges if x + d <= s] + [(x + d, x) for x in edges if x + d <= s]
    for d in (0, 1, 2, d_max // 2):  # lo < corr[d]: the sum clamps to code 0
        pairs += [(lo, lo + d) for lo in (0, 1, CORR[d] - 1)]
        pairs += [(lo + d, lo) for lo in (0, 1, CORR[d] - 1)]
    assert any(fixedlog.add(a, b) == 0 and 0 < min(a, b) for a, b in pairs)
    _assert_pairs_match(oracle, pairs)


def _pairs(width: int):
    """Code pairs at a random distance or one near the table's edge, either order."""
    s = (1 << width) - 1
    d_max = _oracle(width).d_max
    code = st.integers(0, s)
    distance = st.one_of(st.integers(0, d_max + 2), st.integers(d_max - 2, s), st.integers(0, 64))
    near = st.builds(lambda a, d: (a, min(a + d, s)), code, distance)
    either_order = st.one_of(near, near.map(lambda pair: pair[::-1]))
    return st.lists(st.one_of(st.tuples(code, code), either_order), min_size=1, max_size=50)


@pytest.mark.parametrize("width", WIDTHS)
@settings(max_examples=300)
@given(data=st.data())
def test_wide_codecs_match_oracle(width, data):
    oracle = _oracle(width)
    pairs = data.draw(_pairs(width))
    _assert_pairs_match(oracle, pairs)
    for a, b in pairs:
        assert _written(fixedlog, a) == _written(oracle, a)


@pytest.mark.parametrize("width", WIDTHS)
@settings(max_examples=300)
@given(p=st.one_of(st.floats(0.0, 1.0), st.floats(), st.just(5e-324)))
def test_from_real_matches_oracle(width, p):
    assert _outcome(fixedlog.from_real, p) == _outcome(_oracle(width).from_real, p)

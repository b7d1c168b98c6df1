import math
import random
import struct
from io import BytesIO

import mpmath
import pytest
from hypothesis import given, strategies as st

from pakit import logpr
from pakit.errors import DecodeFault, DomainFault


def test_one_has_zero_neg_log():
    assert logpr.from_real(1.0) == 0.0
    assert logpr.to_real(logpr.ONE) == 1.0


def test_zero_is_infinite_neg_log():
    assert logpr.from_real(0.0) == math.inf
    assert logpr.to_real(logpr.ZERO) == 0.0


def test_out_of_domain_faults():
    with pytest.raises(DomainFault):
        logpr.from_real(1.0000001)
    with pytest.raises(DomainFault):
        logpr.from_real(-0.1)
    with pytest.raises(DomainFault):
        logpr.from_real(math.nan)


def test_roundtrip_relative_error():
    rng = random.Random(30)
    for _ in range(10_000):
        p = math.exp(rng.uniform(math.log(1e-300), 0.0))
        back = logpr.to_real(logpr.from_real(p))
        assert abs(back - p) <= 1e-12 * p


def test_mul_is_exact_log_addition():
    half = logpr.from_real(0.5)
    assert logpr.mul(half, half) == half + half
    assert logpr.to_real(logpr.mul(half, half)) == pytest.approx(0.25, rel=1e-15)


def test_mul_by_one_is_identity():
    x = logpr.from_real(0.37)
    assert logpr.mul(x, logpr.ONE) == x


def test_long_product_reaches_tiny_magnitudes():
    # ~1e-1500 products stay representable; checked against mpmath.
    rng = random.Random(31)
    values = [math.exp(rng.uniform(math.log(0.01), math.log(0.1))) for _ in range(1000)]
    accumulator = logpr.ONE
    for p in values:
        accumulator = logpr.mul(accumulator, logpr.from_real(p))
    with mpmath.workdps(60):
        oracle = -mpmath.fsum(mpmath.log(mpmath.mpf(p)) for p in values)
        assert abs(accumulator - float(oracle)) <= 1e-9
    assert accumulator > 1500  # far beyond double's representable band


def test_add_halves_make_one():
    half = logpr.from_real(0.5)
    assert logpr.add(half, half) == logpr.ONE


def test_add_zero_is_identity():
    x = logpr.from_real(0.123)
    assert logpr.add(x, logpr.ZERO) == x
    assert logpr.add(logpr.ZERO, x) == x
    assert logpr.add(logpr.ZERO, logpr.ZERO) == logpr.ZERO


def test_add_matches_direct_double_addition():
    rng = random.Random(32)
    for _ in range(10_000):
        pa, pb = rng.random(), rng.random()
        result = logpr.to_real(logpr.add(logpr.from_real(pa), logpr.from_real(pb)))
        expected = min(pa + pb, 1.0)
        assert abs(result - expected) <= 1e-12 * expected


def test_add_is_stable_for_wide_gaps():
    big = logpr.from_real(0.9)
    tiny = 740.0  # p around 1e-321, exp(-d) underflow territory
    result = logpr.add(big, tiny)
    assert result == pytest.approx(big, rel=1e-12)


def test_add_clamps_at_one():
    a = logpr.from_real(0.9)
    assert logpr.add(a, a) == logpr.ONE


def test_div():
    a, b = logpr.from_real(0.25), logpr.from_real(0.5)
    assert logpr.to_real(logpr.div(a, b)) == pytest.approx(0.5, rel=1e-15)
    with pytest.raises(DomainFault):
        logpr.div(b, a)  # quotient above 1
    with pytest.raises(DomainFault):
        logpr.div(a, logpr.ZERO)


def test_cmp_orders_by_probability():
    assert logpr.cmp(logpr.from_real(0.9), logpr.from_real(0.1)) == 1
    assert logpr.cmp(logpr.ZERO, logpr.from_real(1e-9)) == -1
    assert logpr.cmp(logpr.ONE, logpr.ONE) == 0


def test_cmp_matches_double_order():
    rng = random.Random(33)
    for _ in range(10_000):
        pa, pb = rng.random(), rng.random()
        expected = (pa > pb) - (pa < pb)
        assert logpr.cmp(logpr.from_real(pa), logpr.from_real(pb)) == expected


def test_serialization_bit_pattern_roundtrip():
    for p in (1.0, 0.5, 0.123456789, 1e-300, 0.0):
        x = logpr.from_real(p)
        stream = BytesIO()
        logpr.write(stream, x)
        data = stream.getvalue()
        assert len(data) == 8
        assert logpr.read(BytesIO(data)) == x
        # deterministic byte stream
        second = BytesIO()
        logpr.write(second, x)
        assert second.getvalue() == data


def test_read_rejects_invalid_patterns():
    with pytest.raises(DecodeFault):
        logpr.read(BytesIO(b"\x00" * 7))
    negative = BytesIO()
    logpr.write(negative, -1.0)
    with pytest.raises(DecodeFault):
        logpr.read(BytesIO(negative.getvalue()))


def test_probability_one_writes_as_zero_bytes():
    stream = BytesIO()
    logpr.write(stream, logpr.from_real(1.0))
    assert stream.getvalue() == bytes(8)


def test_read_rejects_negative_zero():
    with pytest.raises(DecodeFault):
        logpr.read(BytesIO(struct.pack(">d", -0.0)))


@given(st.floats(0.0, 1.0))
def test_write_read_is_bit_exact(p):
    x = logpr.from_real(p)
    stream = BytesIO()
    logpr.write(stream, x)
    assert math.copysign(1.0, x) == 1.0
    assert struct.pack(">d", logpr.read(BytesIO(stream.getvalue()))) == struct.pack(">d", x)

import math
import random
import struct
from fractions import Fraction
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


def test_a_positive_fraction_below_the_double_range_is_zero():
    assert logpr.from_real(Fraction(1, 10**400)) == logpr.ZERO
    assert logpr.from_real(Fraction(1, 2)) == math.log(2.0)


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
    assert logpr.div(b, a) == logpr.ONE  # a quotient above 1 clamps to exactly 1
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


# --- the previous add, mul and from_real, kept verbatim as the reference ---

ZERO = logpr.ZERO
ONE = logpr.ONE


def oracle_from_real(p: float) -> float:
    """Encode a probability in [0, 1]; 0 maps to the infinite neg-log."""
    if not 0.0 <= p <= 1.0:
        raise DomainFault("probability %r outside [0, 1]" % (p,))
    if p == 0.0:
        return ZERO
    return ONE - math.log(p)  # +0.0 at p = 1, where -log(p) would be -0.0


def oracle_mul(a: float, b: float) -> float:
    return a + b


def oracle_add(a: float, b: float) -> float:
    """Stable log-sum; sums beyond probability 1 clamp to exactly 1."""
    if a == ZERO:
        return b
    if b == ZERO:
        return a
    lo = a if a < b else b
    hi = b if a < b else a
    result = lo - math.log1p(math.exp(lo - hi))
    return result if result > 0.0 else ONE


def _bits(x: float) -> bytes:
    return struct.pack(">d", x)  # tells -0.0 from 0.0


def _assert_matches_oracle(a: float, b: float) -> None:
    assert _bits(logpr.add(a, b)) == _bits(oracle_add(a, b)), (a, b)
    assert _bits(logpr.mul(a, b)) == _bits(oracle_mul(a, b)), (a, b)


SUBNORMALS = (5e-324, 1e-310, 2.225073858507201e-308)
LN2 = math.log(2.0)  # probability 1/2: two of them sum to exactly ONE
FORCED_OPERANDS = (
    (ZERO, ONE, -0.0, 1e-17, 0.5, 1.0, 744.0, 745.2, 746.0, 1e300)
    + (LN2, math.nextafter(LN2, 0.0), math.nextafter(LN2, 1.0), logpr.from_real(0.9))
    + SUBNORMALS
)


def _forced_pairs():
    pairs = [(x, y) for x in FORCED_OPERANDS for y in FORCED_OPERANDS]  # ZERO/ONE either side, equal operands
    for lo in (0.0, *SUBNORMALS, 1e-17, 0.105, 3.0, 1e5):
        for gap in (744.0, 745.0, 745.13321910194, 745.2, 746.0, 1e4):  # exp(-gap) underflows past 745
            pairs += [(lo, lo + gap), (lo + gap, lo)]
    return pairs


def test_forced_cases_match_oracle():
    pairs = _forced_pairs()
    inner = [(a, b) for a, b in pairs if 0.0 < a < ZERO and 0.0 < b < ZERO]
    assert any(oracle_add(a, b) == ONE for a, b in inner)  # sums that clamp to ONE
    for a, b in pairs:
        _assert_matches_oracle(a, b)


nonnegative = st.floats(min_value=0.0)  # includes inf; NaN is no log-probability


@given(nonnegative, nonnegative)
def test_add_and_mul_match_oracle(a, b):
    _assert_matches_oracle(a, b)


@given(st.floats(0.0, 1e3), st.one_of(st.floats(0.0, 50.0), st.floats(700.0, 800.0), st.floats(0.0, 1e-12)))
def test_close_and_wide_gaps_match_oracle(lo, gap):
    _assert_matches_oracle(lo, lo + gap)
    _assert_matches_oracle(lo + gap, lo)


def _outcome(fn, p):
    try:
        return _bits(fn(p))
    except DomainFault as fault:
        return ("DomainFault", str(fault))


@given(st.one_of(st.floats(0.0, 1.0), st.floats(allow_nan=False), st.sampled_from((0.0, -0.0, 1.0, 5e-324))))
def test_from_real_matches_oracle(p):
    assert _outcome(logpr.from_real, p) == _outcome(oracle_from_real, p)

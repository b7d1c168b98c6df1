import hashlib
import math
import random
import struct
import sys
from io import BytesIO

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from pakit import balanced
from pakit.balanced import ZERO
from pakit.errors import (
    DecodeFault,
    DomainFault,
    OverflowFault,
    RangeFault,
    UnderflowFault,
)


def is_canonical(b):
    significand, exponent = b
    if significand == 0.0:
        return exponent == 0 and math.copysign(1.0, significand) > 0
    if not 0.5 <= abs(significand) < 1.0:
        return False
    # significand must already be single precision
    return struct.unpack("f", struct.pack("f", significand))[0] == significand


def test_from_real_examples():
    assert balanced.from_real(0.0) == (0.0, 0)
    assert balanced.from_real(3.0) == (0.75, 2)
    assert balanced.from_real(-1.0) == (-0.5, 1)


def test_from_real_rejects_non_finite():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainFault):
            balanced.from_real(bad)


def test_from_real_of_an_int_past_the_double_range_is_an_overflow_fault():
    assert balanced.from_real(2**1023) == (0.5, 1024)
    for big in (10**400, -(10**400), 2**1024):
        with pytest.raises(OverflowFault):
            balanced.from_real(big)


def test_to_real_examples():
    assert balanced.to_real((0.75, 2)) == 3.0
    assert balanced.to_real(ZERO) == 0.0


def test_to_real_out_of_double_range_faults():
    with pytest.raises(OverflowFault):
        balanced.to_real((0.5, 5000))
    with pytest.raises(UnderflowFault):
        balanced.to_real((0.5, -5000))


def test_roundtrip_single_precision_quality():
    rng = random.Random(60)
    for _ in range(10_000):
        x = math.ldexp(rng.uniform(-1.0, 1.0), rng.randrange(-900, 900))
        if x == 0.0:
            continue
        back = balanced.to_real(balanced.from_real(x))
        assert abs(back - x) <= 2.0**-24 * abs(x)


def test_mul_example():
    a = (0.75, 2)  # 3
    b = (0.5, 1)  # 1
    assert balanced.mul(a, b) == (0.75, 2)


def test_mul_by_zero_absorbs():
    x = balanced.from_real(123.456)
    assert balanced.mul(x, ZERO) == ZERO
    assert balanced.mul(ZERO, x) == ZERO


def test_tenth_power_of_1e_minus_300():
    base = balanced.from_real(1e-300)
    power = base
    for _ in range(9):
        power = balanced.mul(power, base)
    _, exponent = power
    assert -9967 <= exponent <= -9964  # value around 2**-9965.8
    with mpmath.workdps(60):
        oracle = 10 * mpmath.log(mpmath.mpf(1e-300))
        assert abs(balanced.ln_abs(power) - float(oracle)) <= 1e-4


def test_mul_exponent_overflow_faults():
    giant = (0.5, (1 << 31) - 1)
    with pytest.raises(RangeFault):
        balanced.mul(giant, giant)
    tiny = (0.5, -(1 << 31))
    with pytest.raises(RangeFault):
        balanced.mul(tiny, tiny)


def test_div():
    three = balanced.from_real(3.0)
    two = balanced.from_real(2.0)
    assert balanced.to_real(balanced.div(three, two)) == 1.5
    assert balanced.div(ZERO, two) == ZERO
    with pytest.raises(DomainFault):
        balanced.div(three, ZERO)


def test_add_examples():
    one = balanced.from_real(1.0)
    assert balanced.add(one, one) == (0.5, 2)


def test_add_absorbs_below_alignment_window():
    big = (0.5, 0)
    small = (0.5, -60)
    assert balanced.add(big, small) == big
    assert balanced.add(small, big) == big


def test_add_of_negation_is_zero():
    x = balanced.from_real(0.7071)
    assert balanced.add(x, balanced.neg(x)) == ZERO


def test_sub_and_neg():
    five = balanced.from_real(5.0)
    three = balanced.from_real(3.0)
    assert balanced.to_real(balanced.sub(five, three)) == 2.0
    assert balanced.neg(ZERO) == ZERO
    assert balanced.to_real(balanced.neg(three)) == -3.0


def test_cmp_exponent_dominates():
    assert balanced.cmp((0.5, 100), (0.9, 99)) == 1


def test_cmp_sign_dominates():
    negative = balanced.from_real(-1e300)
    positive = balanced.from_real(1e-300)
    assert balanced.cmp(negative, positive) == -1
    assert balanced.cmp(positive, negative) == 1
    assert balanced.cmp(ZERO, positive) == -1
    assert balanced.cmp(negative, ZERO) == -1


def test_cmp_matches_double_order():
    rng = random.Random(61)
    for _ in range(10_000):
        x = math.ldexp(rng.uniform(-1.0, 1.0), rng.randrange(-60, 60))
        y = math.ldexp(rng.uniform(-1.0, 1.0), rng.randrange(-60, 60))
        a, b = balanced.from_real(x), balanced.from_real(y)
        ax, by = balanced.to_real(a), balanced.to_real(b)
        expected = (ax > by) - (ax < by)
        assert balanced.cmp(a, b) == expected


finite_doubles = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e300, max_value=1e300
)


@given(finite_doubles)
def test_from_real_is_canonical(x):
    assert is_canonical(balanced.from_real(x))


@given(finite_doubles, finite_doubles)
def test_operations_stay_canonical(x, y):
    a, b = balanced.from_real(x), balanced.from_real(y)
    assert is_canonical(balanced.mul(a, b))
    assert is_canonical(balanced.add(a, b))
    assert is_canonical(balanced.sub(a, b))
    if b != ZERO:
        assert is_canonical(balanced.div(a, b))


def test_single_op_accuracy_vs_double():
    # operands taken exactly as represented, results compared to double ops
    rng = random.Random(62)
    for _ in range(10_000):
        a = balanced.from_real(math.ldexp(rng.uniform(-1, 1), rng.randrange(-100, 100)))
        b = balanced.from_real(math.ldexp(rng.uniform(-1, 1), rng.randrange(-100, 100)))
        if a == ZERO or b == ZERO:
            continue
        da, db = balanced.to_real(a), balanced.to_real(b)
        for op, dop in (
            (balanced.mul, lambda: da * db),
            (balanced.add, lambda: da + db),
            (balanced.div, lambda: da / db),
        ):
            result = op(a, b)
            expected = dop()
            if expected == 0.0:
                assert result == ZERO
            else:
                assert abs(balanced.to_real(result) - expected) <= 2.0**-22 * abs(expected)


def test_mul_commutes_exactly():
    rng = random.Random(63)
    for _ in range(1000):
        a = balanced.from_real(rng.uniform(-10, 10))
        b = balanced.from_real(rng.uniform(-10, 10))
        assert balanced.mul(a, b) == balanced.mul(b, a)


def test_mul_reassociation_error_is_bounded():
    rng = random.Random(64)
    for _ in range(2000):
        a, b, c = (
            balanced.from_real(math.exp(rng.uniform(-20, 20))) for _ in range(3)
        )
        left = balanced.mul(balanced.mul(a, b), c)
        right = balanced.mul(a, balanced.mul(b, c))
        assert abs(balanced.ln_abs(left) - balanced.ln_abs(right)) <= 3 * 2.0**-24


def test_thousand_term_product_tracks_log_oracle():
    rng = random.Random(65)
    values = [math.exp(rng.uniform(math.log(1e-10), math.log(1e10))) for _ in range(1000)]
    accumulator = balanced.from_real(1.0)
    for x in values:
        accumulator = balanced.mul(accumulator, balanced.from_real(x))
    with mpmath.workdps(60):
        oracle = mpmath.fsum(mpmath.log(mpmath.mpf(x)) for x in values)
        assert abs(balanced.ln_abs(accumulator) - float(oracle)) <= 1000 * 2.0**-22


def test_ln_abs_matches_math_log_in_range():
    for x in (0.5, 3.0, 1e-300, 1e300):
        b = balanced.from_real(x)  # quantizes x; compare against the held value
        assert balanced.ln_abs(b) == pytest.approx(math.log(balanced.to_real(b)), rel=1e-12)
    with pytest.raises(DomainFault):
        balanced.ln_abs(ZERO)


def test_serialization_roundtrip():
    for x in (0.0, 1.0, -3.75, 1e-300, 2.0**67):
        b = balanced.from_real(x)
        stream = BytesIO()
        balanced.write(stream, b)
        data = stream.getvalue()
        assert len(data) == 8
        assert balanced.read(BytesIO(data)) == b
        second = BytesIO()
        balanced.write(second, b)
        assert second.getvalue() == data


def test_serialization_of_extreme_exponents():
    huge = (0.9, 2_000_000_000)
    stream = BytesIO()
    balanced.write(stream, huge)
    significand, exponent = balanced.read(BytesIO(stream.getvalue()))
    # significand rounds to single on write; exponent is exact
    assert exponent == 2_000_000_000
    assert abs(significand - 0.9) < 1e-7


def test_write_of_computed_values_is_unchanged():
    # SHA-256 taken with the frexp and float32 pack/unpack implementation
    rng = random.Random(66)
    stream = BytesIO()
    acc = balanced.ONE
    for _ in range(2000):
        x = balanced.from_real(math.ldexp(rng.uniform(-1.0, 1.0), rng.randrange(-1074, 1024)))
        y = balanced.from_real(rng.uniform(-1e6, 1e6))
        for value in (x, balanced.mul(x, y), balanced.add(acc, y), balanced.div(y, x) if x != ZERO else y):
            balanced.write(stream, value)
        acc = balanced.add(balanced.mul(acc, y), x)
    digest = hashlib.sha256(stream.getvalue()).hexdigest()
    assert digest == "82afb9eee651367d98835c7c39f95b4d5275cd15670496c0a493ac4b7320cf75"


def test_a_refused_write_writes_nothing():
    stream = BytesIO()
    refused = [((0.5, 2**40), struct.error), ((0.5, -(2**31) - 1), struct.error), ((1e300, 0), OverflowError)]
    for value, fault in refused:  # an exponent past 32 bits, a significand past single range
        with pytest.raises(fault):
            balanced.write(stream, value)
        assert stream.getvalue() == b""


def test_read_rejects_non_canonical():
    stream = BytesIO()
    stream.write(struct.pack(">f", 1.5))
    stream.write(struct.pack(">i", 3))
    with pytest.raises(DecodeFault):
        balanced.read(BytesIO(stream.getvalue()))
    with pytest.raises(DecodeFault):
        balanced.read(BytesIO(b"\x00" * 7))
    dirty_zero = struct.pack(">f", 0.0) + struct.pack(">i", 9)
    with pytest.raises(DecodeFault):
        balanced.read(BytesIO(dirty_zero))


# Bit-exact oracle: the scalar code that rounded through a float32
# pack/unpack round trip and normalized every result with frexp, kept
# verbatim apart from the oracle_ names.  The library's operations must
# return the same (significand, exponent) bits, or raise the same fault.

_ORACLE_PACK_F32 = struct.Struct(">f")
_ORACLE_EXP_MIN = -(1 << 31)
_ORACLE_EXP_MAX = (1 << 31) - 1
_ORACLE_ALIGN_CUTOFF = 25


def oracle_round_single(x: float) -> float:
    return _ORACLE_PACK_F32.unpack(_ORACLE_PACK_F32.pack(x))[0]


def oracle_canonical(sig: float, exp: int) -> tuple:
    if sig == 0.0:
        return ZERO
    m, shift = math.frexp(sig)
    exp += shift
    m = oracle_round_single(m)
    if m == 1.0 or m == -1.0:  # rounding crossed the top of the binade
        m *= 0.5
        exp += 1
    if not _ORACLE_EXP_MIN <= exp <= _ORACLE_EXP_MAX:
        raise RangeFault("exponent %d outside 32-bit range" % exp)
    return (m, exp)


def oracle_from_real(x: float) -> tuple:
    if not math.isfinite(x):
        raise DomainFault("cannot represent non-finite value %r" % (x,))
    return oracle_canonical(x, 0)


def oracle_mul(a: tuple, b: tuple) -> tuple:
    (sa, ea), (sb, eb) = a, b
    if sa == 0.0 or sb == 0.0:
        return ZERO
    return oracle_canonical(sa * sb, ea + eb)


def oracle_div(a: tuple, b: tuple) -> tuple:
    (sa, ea), (sb, eb) = a, b
    if sb == 0.0:
        raise DomainFault("division by zero")
    if sa == 0.0:
        return ZERO
    return oracle_canonical(sa / sb, ea - eb)


def oracle_add(a: tuple, b: tuple) -> tuple:
    (sa, ea), (sb, eb) = a, b
    if sa == 0.0:
        return b
    if sb == 0.0:
        return a
    diff = ea - eb
    if diff > _ORACLE_ALIGN_CUTOFF:
        return a
    if diff < -_ORACLE_ALIGN_CUTOFF:
        return b
    if diff >= 0:
        (s_hi, e_hi), (s_lo, e_lo) = a, b
    else:
        (s_hi, e_hi), (s_lo, e_lo) = b, a
    total = s_hi + math.ldexp(s_lo, e_lo - e_hi)
    if total == 0.0:
        return ZERO
    return oracle_canonical(total, e_hi)


def outcome(operation, *operands):
    """The result's exact bits (the sign of zero included), or the fault type."""
    try:
        result = operation(*operands)
    except (DomainFault, RangeFault) as fault:
        return type(fault)
    assert type(result) is tuple
    significand, exponent = result
    return struct.pack(">d", significand), exponent


_TOP = 1 << 24  # single significands in [0.5, 1) are k / _TOP for 2**23 <= k < 2**24
single_magnitudes = st.one_of(
    st.integers(_TOP // 2, _TOP - 1),
    st.integers(_TOP - 4, _TOP - 1),  # next to 1 - 2**-24
    st.integers(_TOP // 2, _TOP // 2 + 3),
).map(lambda k: k / _TOP)
double_magnitudes = st.one_of(  # in the band, but holding more than single precision
    st.floats(0.5, 1.0, exclude_max=True),
    st.integers(1, 1 << 30).map(lambda k: 1.0 - k * 2.0**-53),  # rounds to or next to the carry
)
exponents = st.one_of(
    st.integers(-40, 40),
    st.integers(_ORACLE_EXP_MAX - 2, _ORACLE_EXP_MAX),
    st.integers(_ORACLE_EXP_MIN, _ORACLE_EXP_MIN + 2),
    st.integers(_ORACLE_EXP_MIN, _ORACLE_EXP_MAX),
)
signs = st.sampled_from([1.0, -1.0])


def numbers(magnitudes):
    nonzero = st.builds(lambda m, s, e: (s * m, e), magnitudes, signs, exponents)
    return st.one_of(st.just(ZERO), nonzero, nonzero, nonzero)


canonical_numbers = numbers(single_magnitudes)
in_band_numbers = numbers(st.one_of(single_magnitudes, double_magnitudes))
# any significand but NaN, outside the band too: every operation falls
# back to frexp there and must still agree with the oracle
any_numbers = st.tuples(
    st.floats(allow_nan=False),
    st.integers(_ORACLE_EXP_MIN - 2, _ORACLE_EXP_MAX + 2),
)


@pytest.mark.parametrize(
    "operation, oracle",
    [(balanced.mul, oracle_mul), (balanced.div, oracle_div), (balanced.add, oracle_add)],
    ids=["mul", "div", "add"],
)
@pytest.mark.parametrize("operands", [canonical_numbers, in_band_numbers, any_numbers], ids=["canonical", "in_band", "any"])
@settings(max_examples=400)
@given(data=st.data())
def test_operation_matches_oracle_bit_for_bit(operation, oracle, operands, data):
    a, b = data.draw(operands), data.draw(operands)
    assert outcome(operation, a, b) == outcome(oracle, a, b)
    assert outcome(operation, b, a) == outcome(oracle, b, a)


def test_edge_operands_match_oracle():
    edges = [
        ZERO,
        (-0.0, 0),
        (0.5, 0),
        (-(1.0 - 2.0**-24), 3),
        (1.0, 0),
        (5e-324, 0),
        (sys.float_info.max, 0),
        (math.inf, 0),
        (-math.inf, 0),
        (0.75, _ORACLE_EXP_MAX),
        (-0.75, _ORACLE_EXP_MIN),
    ]
    for operation, oracle in ((balanced.mul, oracle_mul), (balanced.div, oracle_div), (balanced.add, oracle_add)):
        for a in edges:
            for b in edges:
                assert outcome(operation, a, b) == outcome(oracle, a, b), (operation.__name__, a, b)


@settings(max_examples=400)
@given(
    canonical_numbers,
    st.one_of(single_magnitudes, double_magnitudes),
    signs,
    st.sampled_from([-27, -26, -25, -24, 24, 25, 26, 27]),
)
def test_add_at_the_alignment_cutoff_matches_oracle(a, magnitude, sign, gap):
    _, exponent = a
    b = (sign * magnitude, exponent - gap)
    assert outcome(balanced.add, a, b) == outcome(oracle_add, a, b)
    assert outcome(balanced.add, b, a) == outcome(oracle_add, b, a)


@settings(max_examples=400)
@given(canonical_numbers, st.one_of(single_magnitudes, double_magnitudes), st.integers(-1, 1))
def test_add_cancellation_matches_oracle(a, magnitude, shift):
    significand, exponent = a
    opposite = (-math.copysign(magnitude, significand), exponent + shift)
    assert outcome(balanced.add, a, opposite) == outcome(oracle_add, a, opposite)
    assert outcome(balanced.add, a, balanced.neg(a)) == outcome(oracle_add, a, balanced.neg(a))


@settings(max_examples=1000)
@given(
    st.one_of(
        st.floats(),  # every double: subnormals, +-max, +-0.0, infinities, NaN
        st.sampled_from(
            [5e-324, -5e-324, 2.2250738585072014e-308, sys.float_info.max, -sys.float_info.max, -0.0]
        ),
        double_magnitudes,
        st.builds(math.ldexp, double_magnitudes, st.integers(-1074, 1024)).filter(math.isfinite),
    )
)
def test_from_real_matches_oracle_bit_for_bit(x):
    assert outcome(balanced.from_real, x) == outcome(oracle_from_real, x)


def test_oracle_strategies_reach_the_carry_and_the_range_faults():
    top = (1.0 - 2.0**-40, 0)
    assert balanced.mul(top, top) == oracle_mul(top, top) == (0.5, 1)
    carry = (1.0 - 2.0**-24, 0), (0.5, -24)
    assert balanced.add(*carry) == oracle_add(*carry) == (0.5, 1)
    assert balanced.from_real(1.0 - 2.0**-26) == (0.5, 1)
    edge = (1.0 - 2.0**-24, _ORACLE_EXP_MAX)
    with pytest.raises(RangeFault):
        balanced.add(edge, (0.5, _ORACLE_EXP_MAX - 24))
    with pytest.raises(RangeFault):
        balanced.div((0.5, _ORACLE_EXP_MIN), (0.75, 1))

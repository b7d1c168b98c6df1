"""Extended-range floats: single-quality significand, 32-bit exponent.

A value is the plain tuple (significand, exponent), standing for
significand * 2**exponent, with the significand kept in the canonical
frexp band 0.5 <= |s| < 1 (zero is exactly (0.0, 0)); compare values
with cmp(), not <.  Values are exact tuples, not a named subclass,
because CPython specializes unpacking and building only for exact
tuples, and on a subclass those two steps cost more than the
arithmetic.  The 32-bit exponent reaches magnitudes around
10**±646456993, far past either double limit, while negative values
work like any other float.

Arithmetic runs the significands in double precision and rounds back to
single afterwards, keeping each operation within one single-precision
ulp.  Sums whose exponents differ by more than ALIGN_CUTOFF bits return
the larger operand unchanged: the smaller one is below single
resolution.  Infinities and NaNs are not values here; anything that
leaves the representation raises instead.

Each operation first brings its double result m into the band
0.5 <= |m| < 1.  Where the range of m is known that takes one
comparison and an exact doubling or halving: a product of two canonical
significands lies in [0.25, 1), a quotient in (0.5, 2), an aligned sum
in [0.5, 2) when no cancellation occurs.  Anything else (cancellation,
zero, an operand outside the band) goes through frexp, so every double
gets the same result it would from frexp alone.

How results are rounded.  Inside the band, the single-precision values
are exactly the multiples of 2**-24, and float32 rounding is rounding
to the nearest multiple with ties to even.  Adding _ROUND = 1.5 * 2**28
to m lands in [2**28, 2**29), where a double's ulp is 2**-24 and
_ROUND itself is an even multiple of it, so that one addition performs
exactly this rounding (the FPU rounds to nearest, ties to even), and
subtracting _ROUND again is exact.  The result is bit for bit what a
float32 pack/unpack round trip gives, including the carry to |m| = 1
at the top of the binade, which becomes 0.5 with the exponent raised
by one.

`pr.BALANCED` binds `mul`, `cmp` and the `_probability_*` functions, the
probability view: `add` and `div` clamp at ONE (see `pr` for its rule).
"""

import math
import struct

from . import wire
from .errors import DecodeFault, DomainFault, OverflowFault, RangeFault, UnderflowFault

ALIGN_CUTOFF = 25  # one guard bit past the 24-bit single significand

_EXP_MIN = -(1 << 31)
_EXP_MAX = (1 << 31) - 1
_PACK = struct.Struct(">fi")  # single-precision significand, 32-bit exponent
_LN2 = math.log(2.0)
_ROUND = 1.5 * 2.0**28  # (m + _ROUND) - _ROUND rounds 0.5 <= |m| < 1 to single precision
_ALIGN = [2.0**-shift for shift in range(ALIGN_CUTOFF + 1)]  # exact ldexp(1.0, -shift)

ZERO = (0.0, 0)
ONE = (0.5, 1)


def _rounded(m: float, exp: int) -> tuple:
    """Round m, already in the band 0.5 <= |m| < 1, and build the pair."""
    m = (m + _ROUND) - _ROUND
    if m == 1.0 or m == -1.0:  # rounding crossed the top of the binade
        m *= 0.5
        exp += 1
    if _EXP_MIN <= exp <= _EXP_MAX:
        return (m, exp)
    raise RangeFault("exponent %d outside 32-bit range" % exp)


def _canonical(sig: float, exp: int) -> tuple:
    """sig * 2**exp for any double sig; the path with no range assumption."""
    if sig == 0.0:
        return (0.0, 0)
    m, shift = math.frexp(sig)
    return _rounded(m, exp + shift)


def from_real(x: float) -> tuple:
    """Convert a finite double; the significand rounds to single precision."""
    try:
        finite = math.isfinite(x)
    except OverflowError:  # an int, say, past the double range
        raise OverflowFault("%s value exceeds double range" % type(x).__name__) from None
    if not finite:
        raise DomainFault("cannot represent non-finite value %r" % (x,))
    return _canonical(x, 0)


def to_real(b: tuple) -> float:
    """Convert back to double; out-of-range exponents raise, never wrap."""
    significand, exponent = b
    if significand == 0.0:
        return 0.0
    if exponent > 1024:
        raise OverflowFault("exponent %d exceeds double range" % exponent)
    if exponent < -1073:
        raise UnderflowFault("exponent %d below double range" % exponent)
    return math.ldexp(significand, exponent)


def neg(a: tuple) -> tuple:
    sa, ea = a
    if sa == 0.0:
        return ZERO
    return (-sa, ea)


def mul(a: tuple, b: tuple) -> tuple:
    sa, ea = a
    sb, eb = b
    m = sa * sb
    exp = ea + eb
    # canonical significands give 0.25 <= |m| < 1; the rest takes frexp
    if m >= 0.5:
        if m >= 1.0:
            return _canonical(m, exp)
    elif m <= -0.5:
        if m <= -1.0:
            return _canonical(m, exp)
    elif m >= 0.25 or m <= -0.25:
        m += m
        exp -= 1
    elif sa == 0.0 or sb == 0.0:
        return (0.0, 0)
    else:
        return _canonical(m, exp)
    m = (m + _ROUND) - _ROUND  # _rounded, inlined
    if m == 1.0 or m == -1.0:
        m *= 0.5
        exp += 1
    if _EXP_MIN <= exp <= _EXP_MAX:
        return (m, exp)
    raise RangeFault("exponent %d outside 32-bit range" % exp)


def div(a: tuple, b: tuple) -> tuple:
    sa, ea = a
    sb, eb = b
    if sb == 0.0:
        raise DomainFault("division by zero")
    if sa == 0.0:
        return (0.0, 0)
    q = sa / sb
    exp = ea - eb
    # canonical significands give 0.5 < |q| < 2; the rest takes frexp
    magnitude = abs(q)
    if 1.0 <= magnitude < 2.0:
        return _rounded(0.5 * q, exp + 1)
    if 0.5 <= magnitude < 1.0:
        return _rounded(q, exp)
    return _canonical(q, exp)


def _adder(ceiling: int, above):
    """The one add body: a result exponent past `ceiling` gives `above`, or RangeFault when it is None."""
    def add(a, b) -> tuple:
        sa, ea = a
        sb, eb = b
        if sa == 0.0:
            return b
        if sb == 0.0:
            return a
        diff = ea - eb
        if diff >= 0:
            if diff > ALIGN_CUTOFF:
                return a
            m = sa + sb * _ALIGN[diff]
            exp = ea
        elif diff < -ALIGN_CUTOFF:
            return b
        else:
            m = sb + sa * _ALIGN[-diff]
            exp = eb
        # like signs give 0.5 <= |m| < 2; cancellation and zero take frexp
        if m >= 0.5:
            if m >= 1.0:
                if m >= 2.0:
                    return _canonical(m, exp)
                m *= 0.5
                exp += 1
        elif m <= -0.5:
            if m <= -1.0:
                if m <= -2.0:
                    return _canonical(m, exp)
                m *= 0.5
                exp += 1
        else:
            return _canonical(m, exp)
        m = (m + _ROUND) - _ROUND  # _rounded, inlined
        if m == 1.0 or m == -1.0:
            m *= 0.5
            exp += 1
        if _EXP_MIN <= exp <= ceiling:
            return (m, exp)
        if exp > ceiling and above is not None:
            return above
        raise RangeFault("exponent %d outside 32-bit range" % exp)
    return add


add = _adder(_EXP_MAX, None)


def sub(a: tuple, b: tuple) -> tuple:
    return add(a, neg(b))


def cmp(a: tuple, b: tuple) -> int:
    """Total order on represented values; never converts to double."""
    sa, ea = a
    sb, eb = b
    sign_a = (sa > 0.0) - (sa < 0.0)
    sign_b = (sb > 0.0) - (sb < 0.0)
    if sign_a != sign_b:
        return -1 if sign_a < sign_b else 1
    if sign_a == 0:
        return 0
    if ea != eb:
        # larger exponent means larger magnitude; flips under a negative sign
        return sign_a if ea > eb else -sign_a
    if sa == sb:
        return 0
    return 1 if sa > sb else -1


def ln_abs(b: tuple) -> float:
    """Natural log of |value| as a double; defined far outside double range."""
    significand, exponent = b
    if significand == 0.0:
        raise DomainFault("log of zero")
    return math.log(abs(significand)) + exponent * _LN2


_probability_add = _adder(0, ONE)  # a canonical value >= 0 is >= 1 iff its exponent is >= 1


def _probability_from_real(p):
    """_canonical(p, 0) in one frame; on [0, 1] the exponent stays in range."""
    if not 0.0 <= p <= 1.0:
        raise DomainFault("probability %r outside [0, 1]" % (p,))
    if p == 0.0:
        return (0.0, 0)
    m, exp = math.frexp(p)
    m = (m + _ROUND) - _ROUND  # _rounded, inlined
    if m == 1.0:  # rounding crossed the top of the binade
        return (0.5, exp + 1)
    return (m, exp)


def _probability_to_real(b):
    significand, exponent = b
    return math.ldexp(significand, exponent)  # the nearest double: 0.0 below its range


def _probability_div(a, b):
    """div clamped at one, tested before dividing so no quotient leaves the exponent range."""
    significand, _ = b
    if significand == 0.0:
        raise DomainFault("division by probability zero")
    if cmp(a, b) >= 0:
        return (0.5, 1)
    return div(a, b)


def _probability_neg_ln(b):
    significand, _ = b
    if significand == 0.0:
        return math.inf
    return -ln_abs(b)


def write(stream, b: tuple) -> None:
    """4-byte single-precision significand, 4-byte big-endian exponent."""
    significand, exponent = b
    stream.write(_PACK.pack(significand, exponent))  # one pack: a value that does not fit writes nothing


def read(stream) -> tuple:
    sig, exp = _PACK.unpack(wire.read_exact(stream, 8))
    if sig == 0.0:
        if exp != 0 or math.copysign(1.0, sig) < 0:
            raise DecodeFault("non-canonical zero encoding")
        return ZERO
    if not 0.5 <= abs(sig) < 1.0:
        raise DecodeFault("significand %r outside canonical range" % (sig,))
    return (sig, exp)

"""Log-domain probability values: -ln(p) as a double.

Values are plain nonnegative floats; math.inf stands for probability
zero.  Multiplication is addition of logs, so products of thousands of
tiny probabilities never underflow; `mul` is the builtin
`operator.add`, which costs no Python frame per call.  Addition goes
through the stable log-sum-exp form and is the expensive operation:
`add` orders its operands once, so the larger neg-log (the smaller
probability) is the only one that can be zero and the only one tested.
Sums and quotients above 1 clamp to exactly ONE.  This is the accuracy
reference the other probability representations are measured against.
"""

import math
import operator
import struct
from math import exp, log, log1p

from . import wire
from .errors import DecodeFault, DomainFault

ZERO = math.inf  # p = 0
ONE = 0.0  # p = 1

_PACK_F64 = struct.Struct(">d")


def from_real(p: float) -> float:
    """Encode a probability in [0, 1]; 0 maps to the infinite neg-log."""
    if not 0.0 <= p <= 1.0:
        raise DomainFault("probability %r outside [0, 1]" % (p,))
    if p == 0.0:
        return ZERO
    try:
        return ONE - log(p)  # +0.0 at p = 1, where -log(p) would be -0.0
    except ValueError:  # a positive non-float, say Fraction(1, 10**400), that is 0.0 as a double
        return ZERO


def to_real(x: float) -> float:
    """Decode back to an ordinary probability."""
    return exp(-x)


mul = operator.add  # the product of probabilities is the sum of their neg-logs


def div(a: float, b: float) -> float:
    """Quotient; the divisor must be nonzero, and quotients above 1 clamp to exactly 1."""
    if b == ZERO:
        raise DomainFault("division by probability zero")
    result = a - b
    return result if result > 0.0 else ONE


def add(a: float, b: float) -> float:
    """Stable log-sum; sums beyond probability 1 clamp to exactly 1.

    After the swap a <= b, so a zero operand is b and the sum is a.
    """
    if a > b:
        a, b = b, a
    if b == ZERO:
        return a
    a -= log1p(exp(a - b))
    return a if a > 0.0 else ONE


def cmp(a: float, b: float) -> int:
    """Order by probability: smaller neg-log means larger probability."""
    if a == b:
        return 0
    return 1 if a < b else -1


def write(stream, x: float) -> None:
    """8-byte big-endian bit pattern of the neg-log double."""
    stream.write(_PACK_F64.pack(x))


def read(stream) -> float:
    data = wire.read_exact(stream, 8)
    (x,) = _PACK_F64.unpack(data)
    if math.isnan(x) or data[0] & 0x80:  # the sign bit rules out -0.0 as well
        raise DecodeFault("invalid log-probability bit pattern %r" % (x,))
    return x

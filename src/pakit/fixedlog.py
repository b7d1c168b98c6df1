"""Fixed-point log-domain probabilities with table-driven addition.

A probability p is stored as the unsigned 32-bit integer code
round(-SCALE * ln(p)) with SCALE = 2**16, so code 0 is exactly 1, larger
codes are smaller probabilities, and the all-ones code SENTINEL is
reserved for exactly 0.  Every nonzero double has a code below it: the
smallest, 5e-324, encodes to 48,787,625.  The codes reach probabilities
down to about 10**-28462.  Multiplication is one integer addition
(saturating to the sentinel when the product collapses below the
representable range).

Addition uses the classic log-sum trick (Kingsbury & Rayner 1971): with
lo/hi the smaller/larger code and d their difference,

    result = lo - round(SCALE * ln(1 + exp(-d / SCALE)))

and the correction term CORR[d] is precomputed at import for every d up
to D_MAX, the point where it rounds to zero, so adds stay integer-only.
The table is one packed array of signed 4-byte ints rather than a list
of Python ints, so that it stays cache-resident: its 772,245 entries
take 3.1 MB, where the list's 8-byte slots and int objects took about
18 MB, and a lookup reads 4 bytes where the list read a slot and then,
for corrections above 256, a separate int object.  Wider codes are not
offered: a 64-bit code's table would need on the order of 10**11
entries.
"""

import math
from array import array

import numpy as np

from . import wire
from .errors import DomainFault

WIDTH = 32
SCALE = 1 << 16
SENTINEL = (1 << WIDTH) - 1


def _build_correction_table(scale: int) -> array:
    """corr[d] = round(scale * ln(1 + exp(-d/scale))), up through its first zero."""
    bound = int(scale * math.log(2.0 * scale)) + 64
    # Evaluated in place, so the build holds one float64 array at a time.
    x = np.arange(bound + 1, dtype=np.float64)
    np.divide(x, -scale, out=x)
    np.exp(x, out=x)
    np.log1p(x, out=x)
    np.multiply(x, scale, out=x)
    np.rint(x, out=x)
    x = x.astype(np.intc)
    zeros = np.flatnonzero(x == 0)
    if zeros.size == 0:
        raise AssertionError("correction table bound %d too small for scale %d" % (bound, scale))
    return array("i", x[: int(zeros[0]) + 1].tobytes())


CORR = _build_correction_table(SCALE)
D_MAX = len(CORR) - 1


def from_real(p: float) -> int:
    """Encode a probability in [0, 1]; zero maps to the sentinel."""
    if not 0.0 <= p <= 1.0:
        raise DomainFault("probability %r outside [0, 1]" % (p,))
    if p == 0.0:
        return SENTINEL
    try:
        return round(-SCALE * math.log(p))
    except ValueError:  # a positive non-float, say Fraction(1, 10**400), that is 0.0 as a double
        return SENTINEL


def to_real(code: int) -> float:
    if code == SENTINEL:
        return 0.0
    return math.exp(-code / SCALE)


def mul(a: int, b: int) -> int:
    """Code addition; saturates to the sentinel (probability 0) on overflow.

    A sentinel operand needs no special case: codes are nonnegative, so
    its sum already lands at or past the sentinel and saturates to
    exact zero.
    """
    total = a + b
    return total if total < SENTINEL else SENTINEL


def add(a: int, b: int) -> int:
    """Table-corrected log-sum; sums past probability 1 clamp to code 0.

    After the swap a <= b, so a sentinel operand is b: it takes no
    correction and the sum is a.  Past the table (d > D_MAX) the
    correction is 0 and a needs no clamp.
    """
    if a > b:
        a, b = b, a
    d = b - a
    if d <= D_MAX and b != SENTINEL:
        a -= CORR[d]
        return a if a > 0 else 0
    return a


def div(a: int, b: int) -> int:
    """Code subtraction clamped at 0 (quotients cap at probability 1)."""
    if b == SENTINEL:
        raise DomainFault("division by probability zero")
    if a == SENTINEL:
        return SENTINEL
    diff = a - b
    return diff if diff > 0 else 0


def cmp(a: int, b: int) -> int:
    """Order by probability: the smaller code is the larger value."""
    if a == b:
        return 0
    return 1 if a < b else -1


def write(stream, code: int) -> None:
    wire.write_uint(stream, code, WIDTH // 8)


def read(stream) -> int:
    return wire.read_uint(stream, WIDTH // 8)
